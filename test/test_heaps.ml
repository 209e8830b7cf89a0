(* Tests for Faerie_heaps: binary min-heap and the single-heap multiway
   merge, every engine against one hashtable reference. *)

module Min_heap = Faerie_heaps.Min_heap
module Multiway = Faerie_heaps.Multiway
module Dynarray = Faerie_util.Dynarray
module Xorshift = Faerie_util.Xorshift

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Min_heap                                                            *)
(* ------------------------------------------------------------------ *)

let drain h =
  let rec loop acc =
    match Min_heap.pop h with None -> List.rev acc | Some x -> loop (x :: acc)
  in
  loop []

let test_heap_sorts () =
  let h = Min_heap.create ~cmp:compare () in
  List.iter (Min_heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "heapsort" [ 1; 1; 2; 3; 4; 5; 9 ] (drain h)

let test_heap_peek () =
  let h = Min_heap.create ~cmp:compare () in
  check_bool "empty peek" true (Min_heap.peek h = None);
  Min_heap.push h 3;
  Min_heap.push h 1;
  check_bool "peek min" true (Min_heap.peek h = Some 1);
  check_int "peek does not pop" 2 (Min_heap.length h)

let test_heap_pop_empty () =
  let h : int Min_heap.t = Min_heap.create ~cmp:compare () in
  check_bool "pop empty" true (Min_heap.pop h = None);
  check_bool "pop_exn raises" true
    (try
       ignore (Min_heap.pop_exn h);
       false
     with Invalid_argument _ -> true)

let test_heap_replace_top () =
  let h = Min_heap.create ~cmp:compare () in
  List.iter (Min_heap.push h) [ 2; 5; 7 ];
  Min_heap.replace_top h 6;
  Alcotest.(check (list int)) "replace" [ 5; 6; 7 ] (drain h)

let test_heap_replace_top_empty () =
  let h : int Min_heap.t = Min_heap.create ~cmp:compare () in
  check_bool "raises" true
    (try
       Min_heap.replace_top h 1;
       false
     with Invalid_argument _ -> true)

let test_heap_custom_order () =
  let h = Min_heap.create ~cmp:(fun a b -> compare b a) () in
  List.iter (Min_heap.push h) [ 1; 3; 2 ];
  Alcotest.(check (list int)) "max-heap" [ 3; 2; 1 ] (drain h)

let test_heap_of_array () =
  let h = Min_heap.of_array ~cmp:compare [| 9; 4; 6; 1; 8 |] in
  Alcotest.(check (list int)) "heapify" [ 1; 4; 6; 8; 9 ] (drain h)

let test_heap_clear () =
  let h = Min_heap.create ~cmp:compare () in
  Min_heap.push h 1;
  Min_heap.clear h;
  check_bool "cleared" true (Min_heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"heap drains sorted"
    QCheck.(list small_int)
    (fun l ->
      let h = Min_heap.create ~cmp:compare () in
      List.iter (Min_heap.push h) l;
      drain h = List.sort compare l)

let prop_heapify_equals_pushes =
  QCheck.Test.make ~count:300 ~name:"of_array equals repeated push"
    QCheck.(array small_int)
    (fun a ->
      let h1 = Min_heap.of_array ~cmp:compare a in
      let h2 = Min_heap.create ~cmp:compare () in
      Array.iter (Min_heap.push h2) a;
      drain h1 = drain h2)

let prop_replace_top_is_pop_push =
  QCheck.Test.make ~count:300 ~name:"replace_top == pop;push"
    QCheck.(pair (list small_int) small_int)
    (fun (l, x) ->
      QCheck.assume (l <> []);
      let h1 = Min_heap.create ~cmp:compare () in
      let h2 = Min_heap.create ~cmp:compare () in
      List.iter (Min_heap.push h1) l;
      List.iter (Min_heap.push h2) l;
      Min_heap.replace_top h1 x;
      ignore (Min_heap.pop_exn h2);
      Min_heap.push h2 x;
      drain h1 = drain h2)

(* ------------------------------------------------------------------ *)
(* Multiway                                                            *)
(* ------------------------------------------------------------------ *)

(* Reference: bucket positions per entity with a hashtable. *)
let reference_entity_positions lists =
  let h = Hashtbl.create 16 in
  Array.iteri
    (fun pos l ->
      Array.iter
        (fun e ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt h e) in
          Hashtbl.replace h e (pos :: cur))
        l)
    lists;
  Hashtbl.fold (fun e ps acc -> (e, List.rev ps) :: acc) h []
  |> List.sort compare

(* Flatten per-position lists into the (buf, offs, lens) layout
   [Inverted_index.decode_document] produces. *)
let flatten lists =
  let n = Array.length lists in
  let offs = Array.make n 0 and lens = Array.make n 0 in
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 lists in
  let buf = Array.make (max 1 total) 0 in
  let at = ref 0 in
  Array.iteri
    (fun i l ->
      offs.(i) <- !at;
      lens.(i) <- Array.length l;
      Array.blit l 0 buf !at (Array.length l);
      at := !at + Array.length l)
    lists;
  (buf, offs, lens)

let run_multiway ?merger lists =
  let acc = ref [] in
  let buf, offs, lens = flatten lists in
  Multiway.iter_entity_positions ?merger ~n_positions:(Array.length lists)
    ~buf ~offs ~lens
    ~f:(fun ~entity ~positions ~n ->
      acc := (entity, Array.to_list (Array.sub positions 0 n)) :: !acc)
    ();
  List.rev !acc

let test_multiway_basic () =
  let lists = [| [| 1; 4 |]; [||]; [| 1; 3 |]; [| 3 |] |] in
  Alcotest.(check (list (pair int (list int))))
    "merged"
    [ (1, [ 0; 2 ]); (3, [ 2; 3 ]); (4, [ 0 ]) ]
    (run_multiway lists)

let test_multiway_entity_order_ascending () =
  let lists = [| [| 9 |]; [| 2 |]; [| 5 |] |] in
  Alcotest.(check (list int))
    "entities ascend" [ 2; 5; 9 ]
    (List.map fst (run_multiway lists))

let engines =
  [
    ("binary heap", Multiway.Binary_heap);
    ("tournament tree", Multiway.Tournament_tree);
    ("scan count", Multiway.Scan_count);
  ]

let test_multiway_empty () =
  List.iter
    (fun (name, merger) ->
      Alcotest.(check (list (pair int (list int))))
        (name ^ ": no lists") [] (run_multiway ~merger [||]);
      Alcotest.(check (list (pair int (list int))))
        (name ^ ": all empty") []
        (run_multiway ~merger [| [||]; [||]; [||] |]))
    engines

let arb_lists =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 12)
        (list_size (int_bound 5) (int_bound 8)
        |> map (fun l -> Array.of_list (List.sort_uniq compare l))))
  in
  QCheck.make
    ~print:(fun ls ->
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun a ->
                "["
                ^ String.concat "," (Array.to_list (Array.map string_of_int a))
                ^ "]")
              ls)))
    (QCheck.Gen.map Array.of_list gen)

let prop_multiway_matches_reference =
  QCheck.Test.make ~count:500 ~name:"multiway merge matches hashtable reference"
    arb_lists
    (fun lists ->
      let expected = reference_entity_positions lists in
      List.for_all
        (fun (_, merger) -> run_multiway ~merger lists = expected)
        engines)

let prop_multiway_scans_once =
  QCheck.Test.make ~count:200 ~name:"heap_stats postings match emitted total"
    arb_lists
    (fun lists ->
      let _, total =
        Multiway.heap_stats ~n_positions:(Array.length lists)
          ~length_at:(fun i -> Array.length lists.(i))
      in
      let emitted =
        List.fold_left
          (fun acc (_, ps) -> acc + List.length ps)
          0 (run_multiway lists)
      in
      total = emitted)

(* The paper's two heap engines against each other directly; the default
   is ScanCount, so the binary heap is named. *)
let prop_tournament_equals_binary =
  QCheck.Test.make ~count:500 ~name:"tournament merge == binary-heap merge"
    arb_lists
    (fun lists ->
      run_multiway ~merger:Multiway.Tournament_tree lists
      = run_multiway ~merger:Multiway.Binary_heap lists)

(* ScanCount's counter array spans the entity ids seen on the domain so
   far. A fresh domain starts it empty, so the second run's ids are sure to
   lie past its size; the third checks the grown array came back zeroed. *)
let test_scan_count_grows_counter () =
  let small = [| [| 0; 3 |]; [| 3 |]; [||]; [| 1; 3 |] |] in
  let large = [| [| 2; 40 |]; [| 300 |]; [| 40; 300; 5000 |] |] in
  let runs =
    Domain.join
      (Domain.spawn (fun () ->
           List.map (run_multiway ~merger:Multiway.Scan_count) [ small; large; small ]))
  in
  List.iter2
    (fun lists got ->
      Alcotest.(check (list (pair int (list int))))
        "matches reference" (reference_entity_positions lists) got)
    [ small; large; small ] runs

(* A callback that raises (a budget trip) aborts the run mid-stream; the
   next run on the domain must still see an all-zero counter array. *)
let test_scan_count_abort_resets () =
  let lists = [| [| 1; 4; 7 |]; [| 4 |]; [| 1; 7 |]; [| 2; 4 |] |] in
  let after =
    Domain.join
      (Domain.spawn (fun () ->
           let buf, offs, lens = flatten lists in
           let seen = ref 0 in
           (try
              Multiway.iter_entity_positions ~merger:Multiway.Scan_count
                ~n_positions:(Array.length lists) ~buf ~offs ~lens
                ~f:(fun ~entity:_ ~positions:_ ~n:_ ->
                  incr seen;
                  if !seen = 2 then raise Exit)
                ()
            with Exit -> ());
           run_multiway ~merger:Multiway.Scan_count lists))
  in
  Alcotest.(check (list (pair int (list int))))
    "next run matches reference" (reference_entity_positions lists) after

(* A Delta.add between two documents: the second document names an entity
   id the domain's counter array has never covered. *)
let test_scan_count_delta_add () =
  let module Core = Faerie_core in
  let module Ix = Faerie_index in
  let sim = Faerie_sim.Sim.Jaccard 0.8 in
  (* 32 base entities: the first run sizes the counter array to exactly
     the base id space, so the added entity's id 32 is past its end. *)
  let base = List.init 32 (fun i -> Printf.sprintf "base%d entity%d" i i) in
  let problem = Core.Problem.create ~sim base in
  let doc1 = "see base3 entity3 and base31 entity31 here" in
  let doc2 = "now base31 entity31 and fresh added name together" in
  let matches merger problem text =
    let doc = Core.Problem.tokenize_document problem text in
    fst (Core.Single_heap.run ~merger problem doc)
  in
  let got =
    Domain.join
      (Domain.spawn (fun () ->
           let first = matches Multiway.Scan_count problem doc1 in
           let d = Ix.Delta.create (Core.Problem.index problem) in
           let id =
             match Ix.Delta.add d "fresh added name" with
             | Ix.Delta.Added id -> id
             | Ix.Delta.Exists _ -> Alcotest.fail "fresh raw reported Exists"
           in
           let problem' = Core.Problem.of_index ~sim (Ix.Delta.view d) in
           (first, id, problem', matches Multiway.Scan_count problem' doc2)))
  in
  let first, id, problem', second = got in
  check_bool "first document matches" true (first <> []);
  check_int "added id is past the base space" 32 id;
  check_bool "added entity found" true
    (List.exists (fun m -> m.Core.Types.m_entity = id) second);
  check_bool "same as the binary heap" true
    (second = matches Multiway.Binary_heap problem' doc2)

(* [heap_pops] counts postings streamed: every engine reports the same
   number on a real document, and so does [heap_list_advances]. *)
let test_heap_pops_equal_across_engines () =
  let module Core = Faerie_core in
  let module Metrics = Faerie_obs.Metrics in
  let corpus = Faerie_datagen.Corpus.webpage ~seed:3 ~n_entities:300 ~n_documents:2 () in
  let problem =
    Core.Problem.create ~sim:(Faerie_sim.Sim.Jaccard 0.8)
      (Array.to_list corpus.Faerie_datagen.Corpus.entities)
  in
  let doc =
    Core.Problem.tokenize_document problem
      corpus.Faerie_datagen.Corpus.documents.(0).Faerie_datagen.Corpus.text
  in
  let counts merger =
    Metrics.reset ();
    let r = Core.Single_heap.run ~merger problem doc in
    let snap = Metrics.snapshot () in
    ( r,
      Metrics.counter_value snap "heap_pops",
      Metrics.counter_value snap "heap_list_advances",
      Metrics.counter_value snap "heap_merge_runs" )
  in
  let ((matches, _) as reference), pops, advances, runs = counts Multiway.Binary_heap in
  check_bool "document has postings" true (pops > 1000);
  check_int "one merge run" 1 runs;
  check_bool "document has matches" true (matches <> []);
  List.iter
    (fun (name, merger) ->
      let r, p, a, _ = counts merger in
      check_bool (name ^ ": same matches and stats") true (r = reference);
      check_int (name ^ ": heap_pops") pops p;
      check_int (name ^ ": heap_list_advances") advances a)
    engines;
  let snap = Metrics.snapshot () in
  check_int "scan runs counted" 1 (Metrics.counter_value snap "heap_merge_runs_scan")

(* ------------------------------------------------------------------ *)
(* Int_heap / Loser_tree                                               *)
(* ------------------------------------------------------------------ *)

module Int_heap = Faerie_heaps.Int_heap
module Loser_tree = Faerie_heaps.Loser_tree

let test_int_heap_sorts () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 4; 1; 7; 1; 0; 9 ];
  let rec drain acc =
    if Int_heap.is_empty h then List.rev acc else drain (Int_heap.pop_exn h :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 4; 7; 9 ] (drain [])

let test_int_heap_replace_top () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 2; 5; 7 ];
  Int_heap.replace_top h 6;
  check_int "new min" 5 (Int_heap.pop_exn h);
  check_int "then 6" 6 (Int_heap.pop_exn h)

let test_int_heap_empty () =
  let h = Int_heap.create () in
  check_bool "pop raises" true
    (try
       ignore (Int_heap.pop_exn h);
       false
     with Invalid_argument _ -> true)

let prop_int_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"int heap drains sorted"
    QCheck.(list small_nat)
    (fun l ->
      let h = Int_heap.create () in
      List.iter (Int_heap.push h) l;
      let rec drain acc =
        if Int_heap.is_empty h then List.rev acc
        else drain (Int_heap.pop_exn h :: acc)
      in
      drain [] = List.sort compare l)

let test_loser_tree_basic () =
  let keys = [| 5; 2; 8; 2 |] in
  let t = Loser_tree.create ~keys in
  check_int "winner is a min slot" 2 keys.(Loser_tree.winner t);
  keys.(Loser_tree.winner t) <- max_int;
  Loser_tree.replay t;
  check_int "next min" 2 keys.(Loser_tree.winner t)

let test_loser_tree_single_leaf () =
  let keys = [| 42 |] in
  let t = Loser_tree.create ~keys in
  check_int "only leaf" 0 (Loser_tree.winner t);
  keys.(0) <- max_int;
  Loser_tree.replay t;
  check_bool "exhausted" true (Loser_tree.exhausted t)

let prop_loser_tree_merges_sorted_streams =
  QCheck.Test.make ~count:300 ~name:"loser tree merges k sorted streams"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (list (int_bound 50)))
    (fun streams ->
      let streams = Array.of_list (List.map (fun l -> Array.of_list (List.sort compare l)) streams) in
      let cursor = Array.make (Array.length streams) 0 in
      let keys =
        Array.map (fun s -> if Array.length s > 0 then s.(0) else max_int) streams
      in
      let t = Loser_tree.create ~keys in
      let out = ref [] in
      while not (Loser_tree.exhausted t) do
        let w = Loser_tree.winner t in
        out := keys.(w) :: !out;
        let i = cursor.(w) + 1 in
        cursor.(w) <- i;
        keys.(w) <- (if i < Array.length streams.(w) then streams.(w).(i) else max_int);
        Loser_tree.replay t
      done;
      let expected =
        Array.to_list streams |> List.concat_map Array.to_list |> List.sort compare
      in
      List.rev !out = expected)

(* ------------------------------------------------------------------ *)
(* Tmerge                                                              *)
(* ------------------------------------------------------------------ *)

module Tmerge = Faerie_heaps.Tmerge

let reference_tcount lists t =
  let h = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun v ->
         Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v))))
    lists;
  Hashtbl.fold (fun v c acc -> if c >= t then (v, c) :: acc else acc) h []
  |> List.sort compare

let run_tmerge algo lists t =
  let acc = ref [] in
  (match algo with
  | `Count -> Tmerge.merge_count ~lists ~f:(fun v c -> if c >= t then acc := (v, c) :: !acc)
  | `Skip -> Tmerge.merge_skip ~lists ~t ~f:(fun v c -> acc := (v, c) :: !acc)
  | `Divide -> Tmerge.divide_skip ~lists ~t ~f:(fun v c -> acc := (v, c) :: !acc));
  List.sort compare !acc

let test_tmerge_basic () =
  let lists = [| [| 1; 3; 5 |]; [| 1; 2; 5 |]; [| 5; 9 |] |] in
  Alcotest.(check (list (pair int int)))
    "t=2" [ (1, 2); (5, 3) ]
    (run_tmerge `Skip lists 2);
  Alcotest.(check (list (pair int int)))
    "t=3" [ (5, 3) ]
    (run_tmerge `Divide lists 3);
  Alcotest.(check (list (pair int int)))
    "t=1 counts all" [ (1, 2); (2, 1); (3, 1); (5, 3); (9, 1) ]
    (run_tmerge `Count lists 1)

let test_tmerge_t_exceeds_lists () =
  let lists = [| [| 1 |]; [| 1 |] |] in
  Alcotest.(check (list (pair int int))) "t=3 empty" [] (run_tmerge `Skip lists 3);
  Alcotest.(check (list (pair int int))) "t=3 empty (divide)" [] (run_tmerge `Divide lists 3)

let test_tmerge_empty_lists () =
  Alcotest.(check (list (pair int int))) "no lists" [] (run_tmerge `Skip [||] 1);
  Alcotest.(check (list (pair int int)))
    "empty inner" []
    (run_tmerge `Divide [| [||]; [||] |] 1)

(* distinct ascending lists *)
let arb_tmerge_case =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 8)
           (list_size (int_bound 12) (int_bound 25)
           |> map (fun l -> Array.of_list (List.sort_uniq compare l)))
        |> map Array.of_list)
        (int_range 1 6))
  in
  QCheck.make
    ~print:(fun (ls, t) ->
      Printf.sprintf "t=%d lists=%s" t
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (fun a ->
                   "["
                   ^ String.concat ","
                       (Array.to_list (Array.map string_of_int a))
                   ^ "]")
                 ls))))
    gen

let prop_merge_skip_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"MergeSkip matches counting reference"
    arb_tmerge_case
    (fun (lists, t) -> run_tmerge `Skip lists t = reference_tcount lists t)

let prop_divide_skip_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"DivideSkip matches counting reference"
    arb_tmerge_case
    (fun (lists, t) -> run_tmerge `Divide lists t = reference_tcount lists t)

let prop_divide_skip_all_long_counts =
  QCheck.Test.make ~count:500 ~name:"DivideSkip with forced long-list counts"
    arb_tmerge_case
    (fun (lists, t) ->
      let acc = ref [] in
      Tmerge.divide_skip_with ~long_lists:(t - 1) ~lists ~t ~f:(fun v c ->
          acc := (v, c) :: !acc);
      List.sort compare !acc = reference_tcount lists t)

let test_heap_stats () =
  let lists = [| [| 1; 2 |]; [||]; [| 3 |] |] in
  Alcotest.(check (pair int int))
    "stats" (2, 3)
    (Multiway.heap_stats ~n_positions:3 ~length_at:(fun i -> Array.length lists.(i)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_heaps"
    [
      ( "min_heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "replace_top" `Quick test_heap_replace_top;
          Alcotest.test_case "replace_top empty" `Quick test_heap_replace_top_empty;
          Alcotest.test_case "custom order" `Quick test_heap_custom_order;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          q prop_heap_sorts;
          q prop_heapify_equals_pushes;
          q prop_replace_top_is_pop_push;
        ] );
      ( "multiway",
        [
          Alcotest.test_case "basic" `Quick test_multiway_basic;
          Alcotest.test_case "ascending entities" `Quick
            test_multiway_entity_order_ascending;
          Alcotest.test_case "empty" `Quick test_multiway_empty;
          Alcotest.test_case "heap stats" `Quick test_heap_stats;
          q prop_multiway_matches_reference;
          q prop_multiway_scans_once;
          q prop_tournament_equals_binary;
        ] );
      ( "scan_count",
        [
          Alcotest.test_case "counter array grows" `Quick
            test_scan_count_grows_counter;
          Alcotest.test_case "aborted run resets counters" `Quick
            test_scan_count_abort_resets;
          Alcotest.test_case "Delta.add between documents" `Quick
            test_scan_count_delta_add;
          Alcotest.test_case "heap_pops equal across engines" `Quick
            test_heap_pops_equal_across_engines;
        ] );
      ( "int_heap",
        [
          Alcotest.test_case "sorts" `Quick test_int_heap_sorts;
          Alcotest.test_case "replace_top" `Quick test_int_heap_replace_top;
          Alcotest.test_case "empty" `Quick test_int_heap_empty;
          q prop_int_heap_sorts;
        ] );
      ( "tmerge",
        [
          Alcotest.test_case "basic" `Quick test_tmerge_basic;
          Alcotest.test_case "t exceeds lists" `Quick test_tmerge_t_exceeds_lists;
          Alcotest.test_case "empty lists" `Quick test_tmerge_empty_lists;
          q prop_merge_skip_matches_reference;
          q prop_divide_skip_matches_reference;
          q prop_divide_skip_all_long_counts;
        ] );
      ( "loser_tree",
        [
          Alcotest.test_case "basic" `Quick test_loser_tree_basic;
          Alcotest.test_case "single leaf" `Quick test_loser_tree_single_leaf;
          q prop_loser_tree_merges_sorted_streams;
        ] );
    ]
