(* Dynamic-dictionary tests: the WAL record codec under byte-level
   truncation and corruption, the Delta overlay's extraction equivalence
   against a from-scratch rebuild at every pruning level, crash-safety at
   the wal_append / wal_replay / compact_save / compact_commit fault
   sites, and the cluster's journaled mutation path — 1-shard vs 4-shard
   equivalence, compaction aborts, and journal replay across shard kills.

   The cluster tests fork shard processes. Unix.fork refuses in any
   process that has ever created a domain, so nothing in this binary may
   spawn a domain — extraction baselines use the plain single-threaded
   Single_heap / Fallback path. *)

module Sim = Faerie_sim.Sim
module Core = Faerie_core
module Types = Core.Types
module Problem = Core.Problem
module Outcome = Core.Outcome
module Supervisor = Core.Supervisor
module Cluster = Core.Cluster
module Tk = Faerie_tokenize
module Ix = Faerie_index
module Wal = Faerie_util.Wal
module Fault = Faerie_util.Fault
module Budget = Faerie_util.Budget
module Xorshift = Faerie_util.Xorshift

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Extract [text] and project every match to (start, len, raw entity).
   Entity ids are NOT comparable across index builds — an overlay view
   numbers adds past the base space while a rebuild is dense — so all
   equivalence checks compare spans by the raw string behind the id. *)
let spans ?pruning problem text =
  let doc = Problem.tokenize_document problem text in
  let matches, _ = Core.Single_heap.run ?pruning problem doc in
  let main =
    List.map
      (fun (m : Types.token_match) ->
        let c_start, c_len =
          Tk.Document.char_extent doc ~start:m.Types.m_start ~len:m.Types.m_len
        in
        {
          Types.c_entity = m.Types.m_entity;
          c_start;
          c_len;
          c_score = m.Types.m_score;
        })
      matches
  in
  let all =
    List.sort_uniq Types.compare_char_match
      (Core.Fallback.run problem doc @ main)
  in
  let dict = Problem.dictionary problem in
  List.sort compare
    (List.map
       (fun (m : Types.char_match) ->
         ( m.Types.c_start,
           m.Types.c_len,
           (Ix.Dictionary.entity dict m.Types.c_entity).Ix.Entity.raw ))
       all)

(* ------------------------------------------------------------------ *)
(* WAL: record codec, torn tails, corruption                           *)
(* ------------------------------------------------------------------ *)

let wal_ops =
  [
    Wal.Add "alpha";
    Wal.Remove "beta";
    Wal.Add "a b  c";
    Wal.Add (String.make 40 'z');
    Wal.Remove "";
    Wal.Add "q";
  ]

let test_wal_append_replay () =
  let path = Filename.temp_file "faerie-wal-" ".wal" in
  let w = Wal.openfile path in
  List.iter (Wal.append w) wal_ops;
  Wal.close w;
  let applied = ref [] in
  let n, tail = Wal.replay path (fun op -> applied := op :: !applied) in
  check_int "all records replayed" (List.length wal_ops) n;
  check_bool "clean tail" true (tail = Wal.Clean);
  check_bool "records in append order" true (List.rev !applied = wal_ops);
  let w = Wal.openfile path in
  Wal.truncate w;
  Wal.close w;
  check_bool "truncate empties the log" true
    (Wal.replay path (fun _ -> ()) = (0, Wal.Clean));
  Sys.remove path;
  check_bool "missing file reads as empty" true
    (Wal.replay path (fun _ -> ()) = (0, Wal.Clean))

(* Crash-safety of the append path at the byte level: for EVERY prefix of
   a multi-record log image, parse/replay must recover exactly the
   whole-record prefix — never Corrupt, never a partial record — and
   classify the tail as Clean exactly at record boundaries. repair must
   then trim back to a boundary so appends can resume. *)
let test_wal_truncation_matrix () =
  let encs = List.map Wal.encode wal_ops in
  let img = String.concat "" encs in
  let bounds =
    (* record end offsets: [e1; e1+e2; ...; len] *)
    match
      List.rev
        (List.fold_left
           (fun acc e -> (List.hd acc + String.length e) :: acc)
           [ 0 ] encs)
    with
    | 0 :: ends -> ends
    | _ -> assert false
  in
  let path = Filename.temp_file "faerie-wal-matrix-" ".wal" in
  for k = 0 to String.length img do
    let pre = String.sub img 0 k in
    let whole = List.filter (fun b -> b <= k) bounds in
    let n_whole = List.length whole in
    let last_end = List.fold_left max 0 whole in
    let expected_ops = List.filteri (fun i _ -> i < n_whole) wal_ops in
    let expected_tail =
      if k = last_end then Wal.Clean else Wal.Torn { at = last_end; len = k }
    in
    (match Wal.parse pre with
    | ops, tail ->
        if ops <> expected_ops then
          Alcotest.failf "prefix %d: wrong whole-record prefix" k;
        if tail <> expected_tail then
          Alcotest.failf "prefix %d: wrong tail classification" k
    | exception Wal.Corrupt msg ->
        Alcotest.failf "prefix %d misread as Corrupt: %s" k msg);
    write_file path pre;
    let applied = ref [] in
    let n, rtail = Wal.replay path (fun op -> applied := op :: !applied) in
    check_int (Printf.sprintf "prefix %d: replay count" k) n_whole n;
    check_bool
      (Printf.sprintf "prefix %d: replay applies the prefix" k)
      true
      (List.rev !applied = expected_ops && rtail = expected_tail);
    (match Wal.replay ~strict:true path (fun _ -> ()) with
    | _ ->
        check_bool
          (Printf.sprintf "prefix %d: strict accepts only clean" k)
          true
          (expected_tail = Wal.Clean)
    | exception Wal.Truncated { at; len } ->
        check_bool
          (Printf.sprintf "prefix %d: strict reports the torn tail" k)
          true
          (expected_tail = Wal.Torn { at; len }));
    Wal.repair path rtail;
    let n2, t2 = Wal.replay path (fun _ -> ()) in
    check_int (Printf.sprintf "prefix %d: repair keeps the prefix" k) n_whole
      n2;
    check_bool (Printf.sprintf "prefix %d: repair yields clean" k) true
      (t2 = Wal.Clean)
  done;
  Sys.remove path

(* Structural damage that cannot come from a torn append — a bit flip
   inside a complete record — must refuse loudly, and a Corrupt log must
   apply nothing (parse-before-apply). *)
let test_wal_corruption () =
  let enc = Wal.encode (Wal.Add "hello") in
  let flip i =
    let b = Bytes.of_string enc in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  in
  (* byte 1 is the opcode, byte 3 sits inside the raw string *)
  List.iter
    (fun i ->
      match Wal.parse (flip i) with
      | _ -> Alcotest.failf "bit flip at byte %d not rejected" i
      | exception Wal.Corrupt _ -> ())
    [ 1; 3 ];
  let path = Filename.temp_file "faerie-wal-corrupt-" ".wal" in
  write_file path (flip 3 ^ Wal.encode (Wal.Add "later"));
  let applied = ref 0 in
  (match Wal.replay path (fun _ -> incr applied) with
  | _ -> Alcotest.fail "corrupt log must refuse to replay"
  | exception Wal.Corrupt _ -> check_int "nothing applied" 0 !applied);
  Sys.remove path

let qcheck_wal_roundtrip =
  QCheck.Test.make ~count:400
    ~name:"wal image roundtrips hostile entity strings"
    QCheck.(small_list (pair bool string))
    (fun specs ->
      let ops =
        List.map (fun (add, s) -> if add then Wal.Add s else Wal.Remove s) specs
      in
      let img = String.concat "" (List.map Wal.encode ops) in
      Wal.parse img = (ops, Wal.Clean))

(* ------------------------------------------------------------------ *)
(* WAL fault sites                                                     *)
(* ------------------------------------------------------------------ *)

(* wal_append fires BEFORE the write: an injection must leave zero bytes
   on disk (the mutation was rejected, not half-applied), and a retry
   after disarming lands normally. *)
let test_wal_append_fault () =
  let path = Filename.temp_file "faerie-wal-fault-" ".wal" in
  let w = Wal.openfile path in
  Fault.configure { Fault.seed = 1; rates = [ ("wal_append", 1.0) ] };
  Fun.protect ~finally:Fault.disarm (fun () ->
      (match Wal.append w (Wal.Add "x") with
      | () -> Alcotest.fail "append must raise under injection"
      | exception Fault.Injected "wal_append" -> ());
      check_int "nothing reached disk" 0 (Unix.stat path).Unix.st_size);
  Wal.append w (Wal.Add "x");
  Wal.close w;
  check_bool "retry after disarm lands" true
    (Wal.replay path (fun _ -> ()) = (1, Wal.Clean));
  Sys.remove path

(* A crash mid-recovery (wal_replay firing partway through) must leave a
   state from which a rerun of the full replay converges — idempotency of
   add/remove under replay is what makes the WAL safe to re-run. *)
let test_wal_replay_crash_convergence () =
  let entities = [ "alpha"; "beta" ] in
  let problem = Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 entities in
  let path = Filename.temp_file "faerie-wal-recover-" ".wal" in
  let w = Wal.openfile path in
  let ops =
    [ Wal.Add "gamma"; Wal.Remove "alpha"; Wal.Add "delta"; Wal.Add "beta" ]
  in
  List.iter (Wal.append w) ops;
  Wal.close w;
  let expected = [ "beta"; "gamma"; "delta" ] in
  let apply d = function
    | Wal.Add r -> ignore (Ix.Delta.add d r)
    | Wal.Remove r -> ignore (Ix.Delta.remove d r)
  in
  (* Find a seed where the injection fires after at least one record has
     already been applied — the interesting mid-recovery crash. *)
  let attempt seed =
    let d = Ix.Delta.create (Problem.index problem) in
    let applied = ref 0 in
    Fault.configure { Fault.seed = seed; rates = [ ("wal_replay", 0.5) ] };
    let raised =
      match
        Wal.replay path (fun op ->
            incr applied;
            apply d op)
      with
      | _ -> false
      | exception Fault.Injected "wal_replay" -> true
    in
    Fault.disarm ();
    if raised && !applied > 0 && !applied < List.length ops then Some d
    else None
  in
  let rec find seed =
    if seed > 500 then Alcotest.fail "no seed produced a mid-replay crash"
    else match attempt seed with Some d -> d | None -> find (seed + 1)
  in
  let d = find 1 in
  (* Rerun the whole log against the partially recovered state. *)
  let n, tail = Wal.replay path (apply d) in
  check_int "rerun covers the whole log" (List.length ops) n;
  check_bool "clean tail" true (tail = Wal.Clean);
  check_bool "converges to the full mutation set" true
    (List.sort compare (Ix.Delta.live_raws d) = List.sort compare expected);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Delta overlay: extraction equivalence                               *)
(* ------------------------------------------------------------------ *)

let random_string rng lo hi =
  let n = Xorshift.int_in_range rng ~lo ~hi in
  String.init n (fun _ -> Xorshift.choose rng [| 'a'; 'b'; 'c' |])

let random_words rng lo hi =
  let n = Xorshift.int_in_range rng ~lo ~hi in
  List.init n (fun _ -> Xorshift.choose rng [| "aa"; "bb"; "cc"; "dd"; "ee" |])
  |> String.concat " "

(* The reference model of the live dictionary: a duplicate-free raw list
   the Delta must agree with after every mutation. *)
let apply_model model = function
  | `Add r -> if List.mem r model then model else model @ [ r ]
  | `Remove r -> List.filter (fun x -> x <> r) model

(* Apply to the Delta and cross-check the result constructor against the
   model: Added iff absent, Exists iff live, Removed iff live. *)
let apply_delta_checked d model op =
  match op with
  | `Add r -> (
      match Ix.Delta.add d r with
      | Ix.Delta.Added _ ->
          check_bool "Added only for absent raws" true (not (List.mem r model))
      | Ix.Delta.Exists _ ->
          check_bool "Exists only for live raws" true (List.mem r model))
  | `Remove r -> (
      match Ix.Delta.remove d r with
      | Ix.Delta.Removed _ ->
          check_bool "Removed only for live raws" true (List.mem r model)
      | Ix.Delta.Absent ->
          check_bool "Absent only for dead raws" true (not (List.mem r model)))

let random_op rng model fresh =
  match Xorshift.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 -> `Add (fresh ())
  | 5 when model <> [] -> `Add (Xorshift.choose rng (Array.of_list model))
  | (6 | 7 | 8) when List.length model > 1 ->
      `Remove (Xorshift.choose rng (Array.of_list model))
  | _ -> `Remove (fresh ())

(* Random mutation sequences: the overlay view must extract byte-identical
   spans to a from-scratch rebuild over the model's live set, at every
   pruning level, and compacting the overlay must preserve the answers. *)
let test_delta_equivalence_random () =
  let rng = Xorshift.create 0xFAE71E in
  let shapes =
    [
      (Sim.Edit_distance 1, 2);
      (Sim.Edit_distance 2, 3);
      (Sim.Edit_similarity 0.8, 2);
      (Sim.Jaccard 0.8, 1);
      (Sim.Dice 0.7, 1);
    ]
  in
  List.iter
    (fun (sim, q) ->
      let char_based = Sim.char_based sim in
      let fresh () =
        if char_based then random_string rng 1 8 else random_words rng 1 3
      in
      for _round = 1 to 3 do
        let base = List.sort_uniq compare (List.init 4 (fun _ -> fresh ())) in
        let problem0 = Problem.create ~sim ~q base in
        let d = Ix.Delta.create (Problem.index problem0) in
        let model = ref base in
        for _op = 1 to 10 do
          let op = random_op rng !model fresh in
          apply_delta_checked d !model op;
          model := apply_model !model op
        done;
        check_bool "live_raws agrees with the model" true
          (List.sort compare (Ix.Delta.live_raws d)
          = List.sort compare !model);
        let overlay = Problem.of_index ~sim (Ix.Delta.view d) in
        let rebuilt = Problem.create ~sim ~q !model in
        let docs =
          List.init 3 (fun _ ->
              if char_based then random_string rng 5 30
              else random_words rng 3 12)
        in
        List.iter
          (fun text ->
            List.iter
              (fun pruning ->
                if spans ~pruning overlay text <> spans ~pruning rebuilt text
                then
                  Alcotest.failf
                    "overlay diverges from rebuild (sim=%s pruning=%s doc=%S)"
                    (Sim.to_string sim)
                    (Types.pruning_name pruning)
                    text)
              Types.all_prunings)
          docs;
        let compacted = Problem.of_index ~sim (Ix.Delta.compact d) in
        List.iter
          (fun text ->
            if spans compacted text <> spans rebuilt text then
              Alcotest.failf "compacted index diverges (sim=%s doc=%S)"
                (Sim.to_string sim) text)
          docs
      done)
    shapes

(* Mutation-result algebra: ids are never reused, re-adding a removed raw
   allocates fresh, base entities tombstone in place. *)
let test_delta_id_discipline () =
  let problem =
    Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 [ "alpha"; "beta" ]
  in
  let d = Ix.Delta.create (Problem.index problem) in
  let id1 =
    match Ix.Delta.add d "gamma" with
    | Ix.Delta.Added i -> i
    | Ix.Delta.Exists _ -> Alcotest.fail "fresh raw reported Exists"
  in
  check_bool "added ids start past the base space" true (id1 >= 2);
  (match Ix.Delta.add d "gamma" with
  | Ix.Delta.Exists i -> check_int "Exists returns the live id" id1 i
  | Ix.Delta.Added _ -> Alcotest.fail "re-add of live raw must be Exists");
  (match Ix.Delta.remove d "gamma" with
  | Ix.Delta.Removed i -> check_int "Removed returns the id" id1 i
  | Ix.Delta.Absent -> Alcotest.fail "live raw reported Absent");
  check_bool "double remove is Absent" true
    (Ix.Delta.remove d "gamma" = Ix.Delta.Absent);
  (match Ix.Delta.add d "gamma" with
  | Ix.Delta.Added i2 -> check_bool "ids are never reused" true (i2 <> id1)
  | Ix.Delta.Exists _ -> Alcotest.fail "re-add after remove must be Added");
  (match Ix.Delta.remove d "alpha" with
  | Ix.Delta.Removed 0 -> ()
  | _ -> Alcotest.fail "base entity must tombstone under its base id");
  check_bool "tombstoned raw not live" true (Ix.Delta.mem d "alpha" = None);
  check_int "live count reflects the churn" 2 (Ix.Delta.live_count d);
  check_bool "overlay is pending" true (Ix.Delta.pending d > 0)

(* An overlay copies the base dictionary only when a mutation needs it:
   never mutated, its view is the base itself, even after a [mem] probe;
   and [add] interns new tokens into the private copy, never into the
   base interner that live readers probe. *)
let test_delta_lazy_copies () =
  let problem =
    Problem.create ~sim:(Sim.Jaccard 0.8) [ "alpha beta"; "beta gamma" ]
  in
  let base = Problem.index problem in
  let d = Ix.Delta.create base in
  check_bool "never-mutated view is the base" true (Ix.Delta.view d == base);
  check_bool "mem finds a base raw" true (Ix.Delta.mem d "alpha beta" = Some 0);
  check_bool "a probe is not a mutation" true (Ix.Delta.view d == base);
  let interner = Ix.Dictionary.interner (Ix.Inverted_index.dictionary base) in
  let size = Tk.Interner.size interner in
  (match Ix.Delta.add d "zeta omega" with
  | Ix.Delta.Added 2 -> ()
  | _ -> Alcotest.fail "fresh raw must be Added at the next id");
  check_int "base interner unchanged" size (Tk.Interner.size interner);
  check_bool "new token absent from the base interner" true
    (Tk.Interner.find_opt interner "zeta" = None);
  check_bool "the mutated view is a new index" true (Ix.Delta.view d != base);
  check_bool "the added raw is live" true (Ix.Delta.mem d "zeta omega" = Some 2)

(* ------------------------------------------------------------------ *)
(* Cluster: journaled mutations                                        *)
(* ------------------------------------------------------------------ *)

let quiet_stderr f =
  (* Shard restarts log to stderr by design; keep test output readable. *)
  let saved = Unix.dup Unix.stderr in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stderr;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f

let cluster_config ?(pool_retries = 1) ~shards ~retries () =
  {
    Cluster.default_config with
    Cluster.shards;
    pool =
      {
        Supervisor.domains = 1;
        retry =
          {
            Supervisor.default_retry with
            retries = pool_retries;
            backoff_ms = 0;
          };
        queue_capacity = 8;
        quarantine = None;
        shed = false;
        shard = None;
      };
    retry = { Supervisor.default_retry with retries; backoff_ms = 0 };
  }

let paper_dict =
  [ "kaushik ch"; "chakrabarti"; "chaudhuri"; "venkatesh"; "surajit ch" ]

let paper_doc =
  "an efficient filter for approximate membership checking. venkaee shga \
   kamunshik kabarati, dong xin, surauijt chadhurisigmod."

let docs = [| paper_doc; "chaudhuri venkatesh dong xin"; ""; "zzz qqq" |]

(* 6 applied mutations + 1 no-op; the no-op must not journal. *)
let mutation_script =
  [
    `Add "dong xin";
    `Add "venkaee sh";
    `Remove "venkatesh";
    `Add "kamunshik";
    `Remove "chakrabarti";
    `Add "chadhuri";
    `Remove "not in the dictionary";
  ]

let expected_live = List.fold_left apply_model paper_dict mutation_script
let applied_mutations = 6

let apply_cluster_script cluster =
  List.iter
    (function
      | `Add r -> (
          match Cluster.dict_add cluster r with
          | `Added _ -> ()
          | `Exists _ -> Alcotest.failf "add %S reported Exists" r)
      | `Remove r -> (
          let expected = List.exists (fun x -> x = r) paper_dict in
          match Cluster.dict_remove cluster r with
          | `Removed _ when expected -> ()
          | `Absent when not expected -> ()
          | _ -> Alcotest.failf "remove %S misclassified" r))
    mutation_script

let cluster_spans cluster ~doc text =
  match Cluster.submit cluster ~doc text with
  | Outcome.Ok ms ->
      List.sort compare
        (List.map
           (fun (m : Types.char_match) ->
             match Cluster.entity_raw cluster m.Types.c_entity with
             | Some raw -> (m.Types.c_start, m.Types.c_len, raw)
             | None ->
                 Alcotest.failf "match entity %d has no live raw"
                   m.Types.c_entity)
           ms)
  | _ -> Alcotest.fail "expected Ok from cluster submit"

let rebuilt_spans () =
  let problem =
    Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 expected_live
  in
  Array.map (spans problem) docs

(* The tentpole property for mutations: after the same dict_add /
   dict_remove script, merged answers must be byte-identical between a
   1-shard and a 4-shard cluster, and identical to a single-process run
   over a dictionary that always had the final live set. *)
let test_cluster_mutation_equivalence () =
  let run shards =
    let cluster =
      Cluster.create
        ~config:(cluster_config ~shards ~retries:1 ())
        ~sim:(Sim.Edit_distance 2) ~q:2
        (fun () -> paper_dict)
    in
    Fun.protect
      ~finally:(fun () -> Cluster.shutdown cluster)
      (fun () ->
        apply_cluster_script cluster;
        check_int "journal holds the applied mutations" applied_mutations
          (Cluster.delta_entities cluster);
        check_int "live count" (List.length expected_live)
          (Cluster.live_count cluster);
        check_bool "removed raw resolves to nothing" true
          (Cluster.entity_raw cluster 3 = None);
        Array.mapi (fun i text -> cluster_spans cluster ~doc:i text) docs)
  in
  let one = run 1 and four = run 4 in
  check_bool "1-shard == 4-shard mutated merge" true (one = four);
  let want = rebuilt_spans () in
  Array.iteri
    (fun i got ->
      check_bool
        (Printf.sprintf "doc %d: mutated cluster == rebuilt dictionary" i)
        true (got = want.(i)))
    one

(* Compaction folds the journal into a fresh generation without changing
   any answer, and mutation keeps working on the new generation. *)
let test_cluster_compact () =
  let cluster =
    Cluster.create
      ~config:(cluster_config ~shards:2 ~retries:1 ())
      ~sim:(Sim.Edit_distance 2) ~q:2
      (fun () -> paper_dict)
  in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      apply_cluster_script cluster;
      let before =
        Array.mapi (fun i text -> cluster_spans cluster ~doc:i text) docs
      in
      (match Cluster.compact cluster with
      | Ok (g, folded) ->
          check_int "compact commits generation 1" 1 g;
          check_int "folds every pending mutation" applied_mutations folded
      | Error e -> Alcotest.fail e);
      check_int "generation visible" 1 (Cluster.generation cluster);
      check_int "journal drained" 0 (Cluster.delta_entities cluster);
      check_int "live count preserved" (List.length expected_live)
        (Cluster.live_count cluster);
      let after =
        Array.mapi
          (fun i text -> cluster_spans cluster ~doc:(100 + i) text)
          docs
      in
      check_bool "answers unchanged across compaction" true (before = after);
      (match Cluster.dict_add cluster "post compact" with
      | `Added _ -> ()
      | `Exists _ -> Alcotest.fail "fresh add after compact must be Added");
      check_int "new journal entry" 1 (Cluster.delta_entities cluster);
      match Cluster.compact cluster with
      | Ok (g, folded) ->
          check_int "second compact commits generation 2" 2 g;
          check_int "folds the new mutation" 1 folded
      | Error e -> Alcotest.fail e)

(* Crash-safety at the compactor's two fault sites: an injection at
   compact_save (while building the snapshot) or compact_commit (after
   every shard prepared, before adoption) must return Error, keep the old
   generation serving with every journaled mutation intact, and a retry
   after disarming must succeed with unchanged answers. *)
let test_cluster_compact_fault_sites () =
  quiet_stderr (fun () ->
      let cluster =
        Cluster.create
          ~config:(cluster_config ~shards:2 ~retries:1 ())
          ~sim:(Sim.Edit_distance 2) ~q:2
          (fun () -> paper_dict)
      in
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm ();
          Cluster.shutdown cluster)
        (fun () ->
          apply_cluster_script cluster;
          let before =
            Array.mapi (fun i text -> cluster_spans cluster ~doc:i text) docs
          in
          List.iteri
            (fun round site ->
              Fault.configure { Fault.seed = 3; rates = [ (site, 1.0) ] };
              (match Cluster.compact cluster with
              | Ok _ -> Alcotest.failf "compact must fail under %s" site
              | Error _ -> ());
              Fault.disarm ();
              check_int
                (Printf.sprintf "%s: old generation keeps serving" site)
                0 (Cluster.generation cluster);
              check_int
                (Printf.sprintf "%s: journal keeps its mutations" site)
                applied_mutations
                (Cluster.delta_entities cluster);
              let now =
                Array.mapi
                  (fun i text ->
                    cluster_spans cluster ~doc:(((round + 1) * 100) + i) text)
                  docs
              in
              check_bool
                (Printf.sprintf "%s: answers unchanged after abort" site)
                true (before = now))
            [ "compact_save"; "compact_commit" ];
          (match Cluster.compact cluster with
          | Ok (g, folded) ->
              check_int "retry after disarm commits" 1 g;
              check_int "retry folds everything" applied_mutations folded
          | Error e -> Alcotest.fail e);
          let after =
            Array.mapi
              (fun i text -> cluster_spans cluster ~doc:(500 + i) text)
              docs
          in
          check_bool "answers unchanged across the recovered compaction" true
            (before = after)))

(* A mutation, once accepted, survives shard deaths: with shard_frame and
   supervisor_worker faults armed, respawned shards are replayed their
   journals, so every document must still converge to the mutated
   dictionary's exact answers. *)
let test_cluster_mutation_survives_shard_kills () =
  quiet_stderr (fun () ->
      let want = rebuilt_spans () in
      (* Arm BEFORE the fork so shard children inherit the campaign: the
         shard_frame site fires inside the children on Doc frames. Dict
         frames never fault, so the mutations land cleanly; the kills
         happen under the extraction load that follows. *)
      Fault.configure
        {
          Fault.seed = 20260809;
          rates = [ ("shard_frame", 0.3); ("supervisor_worker", 0.2) ];
        };
      let cluster =
        Cluster.create
          ~config:(cluster_config ~pool_retries:6 ~shards:4 ~retries:8 ())
          ~sim:(Sim.Edit_distance 2) ~q:2
          (fun () -> paper_dict)
      in
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm ();
          Cluster.shutdown cluster)
        (fun () ->
          apply_cluster_script cluster;
          Array.iteri
            (fun i text ->
              check_bool
                (Printf.sprintf
                   "doc %d: mutated answers survive shard kills" i)
                true
                (cluster_spans cluster ~doc:i text = want.(i)))
            docs;
          Fault.disarm ();
          check_bool "shard kills actually happened" true
            ((Cluster.totals cluster).Cluster.shard_restarts > 0);
          check_int "journal intact after replays" applied_mutations
            (Cluster.delta_entities cluster)))

(* Health must surface the mutation state: per-shard journal length and a
   compaction age that resets when a generation commits. *)
let test_cluster_health_mutation_fields () =
  let cluster =
    Cluster.create
      ~config:(cluster_config ~shards:2 ~retries:1 ())
      ~sim:(Sim.Edit_distance 2) ~q:2
      (fun () -> paper_dict)
  in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      apply_cluster_script cluster;
      let status, healths = Cluster.health cluster in
      Alcotest.(check string) "cluster healthy" "ok" status;
      let journal_total =
        List.fold_left
          (fun acc h -> acc + h.Core.Serve_proto.h_delta)
          0 healths
      in
      check_int "per-shard journal lengths sum to the pending mutations"
        applied_mutations journal_total;
      List.iter
        (fun h ->
          match h.Core.Serve_proto.h_compact_age_s with
          | Some age -> check_bool "compaction age is sane" true (age >= 0.)
          | None -> Alcotest.fail "compaction age missing")
        healths;
      (match Cluster.compact cluster with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let _, healths = Cluster.health cluster in
      List.iter
        (fun h ->
          check_int "journal drained after compaction" 0
            h.Core.Serve_proto.h_delta)
        healths)

(* ------------------------------------------------------------------ *)
(* Quarantine generation stamp                                         *)
(* ------------------------------------------------------------------ *)

let test_quarantine_gen_codec () =
  let r =
    {
      Supervisor.Quarantine.doc_id = 9;
      id = None;
      shard = Some 1;
      attempts = 2;
      error = "worker crashed";
      sim = Sim.Edit_distance 2;
      q = 2;
      pruning = Types.Binary_window;
      budget = Budget.spec_unlimited;
      fault = None;
      gen = 5;
      text = "poison";
    }
  in
  (match Supervisor.Quarantine.(of_json (to_json r)) with
  | Ok back ->
      check_int "generation round-trips" 5 back.Supervisor.Quarantine.gen
  | Error e -> Alcotest.fail e);
  (* Records written before dynamic dictionaries carry no gen key; they
     must parse as generation 0. *)
  let legacy =
    Str.replace_first (Str.regexp_string {|,"gen":5|}) ""
      (Supervisor.Quarantine.to_json r)
  in
  check_bool "legacy line really has no gen key" true
    (not
       (try
          ignore (Str.search_forward (Str.regexp_string {|"gen"|}) legacy 0);
          true
        with Not_found -> false));
  match Supervisor.Quarantine.of_json legacy with
  | Ok back ->
      check_int "legacy records default to generation 0" 0
        back.Supervisor.Quarantine.gen
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "faerie_mutation"
    [
      ( "wal",
        [
          Alcotest.test_case "append + replay roundtrip" `Quick
            test_wal_append_replay;
          Alcotest.test_case "byte-truncation matrix" `Quick
            test_wal_truncation_matrix;
          Alcotest.test_case "corruption refused" `Quick test_wal_corruption;
          QCheck_alcotest.to_alcotest qcheck_wal_roundtrip;
        ] );
      ( "wal_faults",
        [
          Alcotest.test_case "wal_append injection rejects the mutation"
            `Quick test_wal_append_fault;
          Alcotest.test_case "mid-replay crash converges on rerun" `Quick
            test_wal_replay_crash_convergence;
        ] );
      ( "delta",
        [
          Alcotest.test_case "random mutations == rebuild (all prunings)"
            `Quick test_delta_equivalence_random;
          Alcotest.test_case "id discipline" `Quick test_delta_id_discipline;
          Alcotest.test_case "copies deferred to the first mutation" `Quick
            test_delta_lazy_copies;
        ] );
      ( "cluster_mutation",
        [
          Alcotest.test_case "1-shard == 4-shard == rebuild" `Quick
            test_cluster_mutation_equivalence;
          Alcotest.test_case "compaction folds the journal" `Quick
            test_cluster_compact;
          Alcotest.test_case "compact_save/compact_commit abort cleanly"
            `Quick test_cluster_compact_fault_sites;
          Alcotest.test_case "mutations survive shard kills" `Quick
            test_cluster_mutation_survives_shard_kills;
          Alcotest.test_case "health reports journal + compaction age" `Quick
            test_cluster_health_mutation_fields;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "generation stamp + legacy default" `Quick
            test_quarantine_gen_codec;
        ] );
    ]
