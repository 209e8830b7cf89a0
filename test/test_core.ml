(* Tests for Faerie_core: counting, buckets, windows, the heap algorithms,
   fallback, extractor — including equivalence with the brute-force oracle. *)

module Tk = Faerie_tokenize
module S = Faerie_sim
module Sim = S.Sim
module Core = Faerie_core
module Types = Core.Types
module Problem = Core.Problem
module Counting = Core.Counting
module Position_list = Core.Position_list
module Windows = Core.Windows
module Single_heap = Core.Single_heap
module Multi_heap = Core.Multi_heap
module Fallback = Core.Fallback
module Extractor = Core.Extractor
module Outcome = Core.Outcome
module Naive = Faerie_baselines.Naive

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let paper_dict =
  [ "kaushik ch"; "chakrabarti"; "chaudhuri"; "venkatesh"; "surajit ch" ]

let paper_doc =
  "an efficient filter for approximate membership checking. venkaee shga \
   kamunshik kabarati, dong xin, surauijt chadhurisigmod."

(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

let brute_nonzero ~positions ~first ~last ~len ~n_tokens =
  let acc = ref [] in
  for start = 0 to n_tokens - len do
    let count = ref 0 in
    for i = first to last do
      if positions.(i) >= start && positions.(i) <= start + len - 1 then incr count
    done;
    if !count > 0 then acc := (start, !count) :: !acc
  done;
  List.rev !acc

let run_nonzero ~positions ~first ~last ~len ~n_tokens =
  let acc = ref [] in
  Counting.iter_nonzero ~positions ~first ~last ~len ~n_tokens
    ~f:(fun ~start ~count -> acc := (start, count) :: !acc);
  List.rev !acc

let test_counting_basic () =
  let positions = [| 2; 5; 6 |] in
  Alcotest.(check (list (pair int int)))
    "counts"
    (brute_nonzero ~positions ~first:0 ~last:2 ~len:3 ~n_tokens:10)
    (run_nonzero ~positions ~first:0 ~last:2 ~len:3 ~n_tokens:10)

let test_counting_len_exceeds_doc () =
  Alcotest.(check (list (pair int int)))
    "empty" []
    (run_nonzero ~positions:[| 0 |] ~first:0 ~last:0 ~len:5 ~n_tokens:3)

let test_counting_slice () =
  let positions = [| 1; 4; 9 |] in
  Alcotest.(check (list (pair int int)))
    "middle slice only"
    (brute_nonzero ~positions ~first:1 ~last:1 ~len:2 ~n_tokens:12)
    (run_nonzero ~positions ~first:1 ~last:1 ~len:2 ~n_tokens:12)

let arb_positions_case =
  let gen =
    QCheck.Gen.(
      int_range 1 30 >>= fun n_tokens ->
      list_size (int_range 1 8) (int_bound (n_tokens - 1)) >>= fun ps ->
      let ps = List.sort_uniq compare ps in
      int_range 1 (n_tokens + 2) >>= fun len ->
      return (Array.of_list ps, len, n_tokens))
  in
  QCheck.make
    ~print:(fun (ps, len, n) ->
      Printf.sprintf "positions=[%s] len=%d n=%d"
        (String.concat "," (Array.to_list (Array.map string_of_int ps)))
        len n)
    gen

let prop_counting_matches_brute =
  QCheck.Test.make ~count:1000 ~name:"iter_nonzero matches brute force"
    arb_positions_case
    (fun (positions, len, n_tokens) ->
      let last = Array.length positions - 1 in
      run_nonzero ~positions ~first:0 ~last ~len ~n_tokens
      = brute_nonzero ~positions ~first:0 ~last ~len ~n_tokens)

(* ------------------------------------------------------------------ *)
(* Position_list                                                       *)
(* ------------------------------------------------------------------ *)

let test_buckets_paper () =
  (* Section 4.1: Pe4 = [1,2,3,4,9,14,19] (1-based), tau = 1, q = 2 =>
     gap = 2; buckets [1..4], [9], [14], [19]. *)
  let positions = [| 1; 2; 3; 4; 9; 14; 19 |] in
  Alcotest.(check (list (pair int int)))
    "paper buckets"
    [ (0, 3); (4, 4); (5, 5); (6, 6) ]
    (Position_list.buckets ~positions ~gap:2 ())

let test_buckets_single () =
  Alcotest.(check (list (pair int int)))
    "one bucket" [ (0, 2) ]
    (Position_list.buckets ~positions:[| 5; 6; 7 |] ~gap:0 ())

let test_buckets_empty () =
  Alcotest.(check (list (pair int int))) "empty" [] (Position_list.buckets ~positions:[||] ~gap:3 ())

let test_buckets_negative_gap () =
  Alcotest.(check (list (pair int int)))
    "singletons"
    [ (0, 0); (1, 1); (2, 2) ]
    (Position_list.buckets ~positions:[| 1; 2; 3 |] ~gap:(-1) ())

let prop_buckets_partition =
  QCheck.Test.make ~count:500 ~name:"buckets partition the list respecting gaps"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_bound 10) (QCheck.int_bound 40))
       (QCheck.int_range 0 5))
    (fun (ps, gap) ->
      let positions = Array.of_list (List.sort_uniq compare ps) in
      let bs = Position_list.buckets ~positions ~gap () in
      let m = Array.length positions in
      (* Contiguous cover of 0..m-1. *)
      let covered =
        List.fold_left
          (fun expect (first, last) ->
            if expect = first && last >= first then last + 1 else -1000)
          0 bs
      in
      (m = 0 && bs = [])
      || (covered = m
         && List.for_all
              (fun (first, last) ->
                (* inside a bucket all gaps <= gap *)
                let ok_inside = ref true in
                for i = first to last - 1 do
                  if positions.(i + 1) - positions.(i) - 1 > gap then
                    ok_inside := false
                done;
                !ok_inside)
              bs
         &&
         (* boundaries have gap > gap *)
         let rec boundaries = function
           | (_, l1) :: ((f2, _) :: _ as rest) ->
               positions.(f2) - positions.(l1) - 1 > gap && boundaries rest
           | _ -> true
         in
         boundaries bs))

let test_count_in_range () =
  let positions = [| 2; 4; 4 + 3; 15 |] in
  check_int "inside" 2 (Position_list.count_in_range ~positions ~lo:3 ~hi:8);
  check_int "all" 4 (Position_list.count_in_range ~positions ~lo:0 ~hi:20);
  check_int "none" 0 (Position_list.count_in_range ~positions ~lo:16 ~hi:20);
  check_int "inverted" 0 (Position_list.count_in_range ~positions ~lo:5 ~hi:4)

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

let paper_pe4 = [| 10; 17; 33; 34; 43; 58; 59; 60; 61; 66; 71; 76; 81; 86 |]

let collect_windows ~positions ~tl ~upper =
  let acc = ref [] in
  Windows.iter_windows ~positions ~tl ~upper
    ~f:(fun ~first ~last -> acc := (first, last) :: !acc)
    ();
  List.rev !acc

let test_windows_paper_example () =
  (* Section 4.2 / Fig. 10: tau = 2, Tl = 4, upper = 10; the only windows
     that survive start at (1-based) 6 and 7 — 0-based 5 and 6 — both
     extending to index 9 (position 66). *)
  Alcotest.(check (list (pair int int)))
    "paper windows"
    [ (5, 9); (6, 9) ]
    (collect_windows ~positions:paper_pe4 ~tl:4 ~upper:10)

let test_windows_tl_greater_than_upper () =
  Alcotest.(check (list (pair int int)))
    "infeasible" []
    (collect_windows ~positions:paper_pe4 ~tl:11 ~upper:10)

let test_windows_all_feasible () =
  let positions = [| 3; 4; 5; 6 |] in
  Alcotest.(check (list (pair int int)))
    "every start"
    [ (0, 3); (1, 3); (2, 3) ]
    (collect_windows ~positions ~tl:2 ~upper:10)

let reference_windows ~positions ~tl ~upper =
  let m = Array.length positions in
  let acc = ref [] in
  if tl <= upper then
    for i = 0 to m - tl do
      if positions.(i + tl - 1) - positions.(i) + 1 <= upper then begin
        (* last x with span <= upper *)
        let x = ref (i + tl - 1) in
        while !x + 1 < m && positions.(!x + 1) - positions.(i) + 1 <= upper do
          incr x
        done;
        acc := (i, !x) :: !acc
      end
    done;
  List.rev !acc

let arb_window_case =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 14) (int_bound 60) >>= fun ps ->
      let ps = List.sort_uniq compare ps in
      int_range 1 6 >>= fun tl ->
      int_range 1 15 >>= fun upper ->
      return (Array.of_list ps, tl, upper))
  in
  QCheck.make
    ~print:(fun (ps, tl, upper) ->
      Printf.sprintf "positions=[%s] tl=%d upper=%d"
        (String.concat "," (Array.to_list (Array.map string_of_int ps)))
        tl upper)
    gen

let prop_windows_match_reference =
  QCheck.Test.make ~count:1000 ~name:"binary span/shift matches linear reference"
    arb_window_case
    (fun (positions, tl, upper) ->
      QCheck.assume (Array.length positions >= tl);
      collect_windows ~positions ~tl ~upper
      = reference_windows ~positions ~tl ~upper)

let test_binary_span_paper () =
  (* Fig. 8: spanning from index 5 (1-based 6) reaches index 9 (position
     66) since p10 - p6 + 1 = 9 <= 10 and p11 - p6 + 1 = 14 > 10. *)
  check_int "span" 9 (Windows.binary_span ~positions:paper_pe4 ~upper:10 5)

let test_binary_shift_skips () =
  (* Fig. 10: shifting from window start 0 jumps directly past starts 1-2. *)
  let i = Windows.binary_shift ~positions:paper_pe4 ~tl:4 ~upper:10 0 in
  check_bool "jumps at least to 2" true (i >= 2)

(* ------------------------------------------------------------------ *)
(* Problem classification                                              *)
(* ------------------------------------------------------------------ *)

let test_problem_paths () =
  let p = Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 [ "chaudhuri"; "a"; "abc" ] in
  check_bool "normal entity indexed" true
    ((Problem.info p 0).Problem.path = Problem.Indexed);
  check_bool "sub-q entity on fallback" true
    ((Problem.info p 1).Problem.path = Problem.Fallback);
  (* "abc": 2 grams, tl = 2 - 4 <= 0 -> fallback *)
  check_bool "vacuous filter on fallback" true
    ((Problem.info p 2).Problem.path = Problem.Fallback)

let test_problem_word_empty_entity () =
  let p = Problem.create ~sim:(Sim.Jaccard 0.8) [ "..." ] in
  check_bool "impossible" true ((Problem.info p 0).Problem.path = Problem.Impossible)

let test_problem_globals () =
  let p = Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 paper_dict in
  (* entities have 8..10 grams; bounds are |e| -/+ 1. *)
  check_int "global lower" 7 (Problem.global_lower p);
  check_int "global upper" 11 (Problem.global_upper p)

let test_problem_invalid_args () =
  check_bool "bad q" true
    (try
       ignore (Problem.create ~sim:(Sim.Edit_distance 1) ~q:0 [ "x" ]);
       false
     with Invalid_argument _ -> true);
  check_bool "bad delta" true
    (try
       ignore (Problem.create ~sim:(Sim.Jaccard 0.) [ "x" ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Equivalence: Faerie (all pruning levels) == oracle                   *)
(* ------------------------------------------------------------------ *)

let faerie_char_matches ~pruning problem doc =
  let matches, _ = Single_heap.run ~pruning problem doc in
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
  let fb = Fallback.run problem doc in
  List.sort_uniq Types.compare_char_match (fb @ main)

let triples =
  List.map (fun (m : Types.char_match) -> (m.Types.c_entity, m.Types.c_start, m.Types.c_len))

let check_equiv ~sim ~q entities doc_text =
  let problem = Problem.create ~sim ~q entities in
  let doc = Problem.tokenize_document problem doc_text in
  let oracle = Naive.extract problem doc in
  List.iter
    (fun pruning ->
      let got = faerie_char_matches ~pruning problem doc in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "%s @ %s" (Sim.to_string sim) (Types.pruning_name pruning))
        (triples oracle) (triples got))
    Types.all_prunings

let test_equiv_paper_ed () =
  check_equiv ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict paper_doc

let test_equiv_paper_ed_tau1 () =
  check_equiv ~sim:(Sim.Edit_distance 1) ~q:2 paper_dict paper_doc

let test_equiv_paper_eds () =
  check_equiv ~sim:(Sim.Edit_similarity 0.8) ~q:2 paper_dict paper_doc

let test_equiv_word_small () =
  let entities = [ "dong xin"; "surajit chaudhuri"; "sigmod conference" ] in
  let doc = "the dong xin paper at sigmod xin conference with chaudhuri" in
  List.iter
    (fun sim -> check_equiv ~sim ~q:1 entities doc)
    [ Sim.Jaccard 0.5; Sim.Cosine 0.5; Sim.Dice 0.5; Sim.Jaccard 1.0 ]

(* Random instances. *)

let word_vocab = [| "aa"; "bb"; "cc"; "dd"; "ee" |]

let gen_word_string n_lo n_hi =
  QCheck.Gen.(
    list_size (int_range n_lo n_hi) (oneofl (Array.to_list word_vocab))
    |> map (String.concat " "))

let arb_word_instance =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 5) (gen_word_string 1 4) >>= fun entities ->
      gen_word_string 4 20 >>= fun doc ->
      oneofl
        [ Sim.Jaccard 0.5; Sim.Jaccard 0.8; Sim.Jaccard 1.0; Sim.Cosine 0.6;
          Sim.Cosine 0.9; Sim.Dice 0.5; Sim.Dice 0.85 ]
      >>= fun sim -> return (entities, doc, sim))
  in
  QCheck.make
    ~print:(fun (es, doc, sim) ->
      Printf.sprintf "dict=[%s] doc=%S sim=%s" (String.concat "; " es) doc
        (Sim.to_string sim))
    gen

let equiv_prop (entities, doc_text, sim) ~q =
  let problem = Problem.create ~sim ~q entities in
  let doc = Problem.tokenize_document problem doc_text in
  let oracle = triples (Naive.extract problem doc) in
  List.for_all
    (fun pruning ->
      triples (faerie_char_matches ~pruning problem doc) = oracle)
    Types.all_prunings

let prop_equiv_word =
  QCheck.Test.make ~count:300 ~name:"all pruning levels == oracle (token sims)"
    arb_word_instance
    (fun inst -> equiv_prop inst ~q:1)

let gen_char_string lo hi =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range lo hi))

let arb_char_instance =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4) (gen_char_string 2 8) >>= fun entities ->
      gen_char_string 8 30 >>= fun doc ->
      oneofl [ 2; 3 ] >>= fun q ->
      oneofl
        [ Sim.Edit_distance 0; Sim.Edit_distance 1; Sim.Edit_distance 2;
          Sim.Edit_similarity 0.7; Sim.Edit_similarity 0.9; Sim.Edit_similarity 1.0 ]
      >>= fun sim -> return (entities, doc, sim, q))
  in
  QCheck.make
    ~print:(fun (es, doc, sim, q) ->
      Printf.sprintf "dict=[%s] doc=%S sim=%s q=%d" (String.concat "; " es) doc
        (Sim.to_string sim) q)
    gen

let prop_equiv_char =
  QCheck.Test.make ~count:300 ~name:"all pruning levels == oracle (ed/eds)"
    arb_char_instance
    (fun (entities, doc, sim, q) -> equiv_prop (entities, doc, sim) ~q)

(* Token-based similarities over q-gram tokens (the paper's PubMed dice /
   cosine setting, Fig 17d/e) must also agree with the oracle. *)
let prop_equiv_gram_mode_token_sims =
  QCheck.Test.make ~count:200 ~name:"dice/cos over grams == oracle"
    arb_char_instance
    (fun (entities, doc_text, _, q) ->
      List.for_all
        (fun sim ->
          let problem =
            Problem.create ~sim ~mode:(Tk.Document.Gram q) entities
          in
          let doc = Problem.tokenize_document problem doc_text in
          let oracle = triples (Naive.extract problem doc) in
          triples (faerie_char_matches ~pruning:Types.Binary_window problem doc)
          = oracle)
        [ Sim.Dice 0.8; Sim.Cosine 0.8; Sim.Jaccard 0.7 ])

(* Multi-heap produces the same matches and the same candidate metric as the
   un-pruned single-heap. *)
let prop_multi_equals_single =
  QCheck.Test.make ~count:150 ~name:"multi-heap == single-heap"
    arb_char_instance
    (fun (entities, doc_text, sim, q) ->
      let problem = Problem.create ~sim ~q entities in
      let doc = Problem.tokenize_document problem doc_text in
      let m_matches, _ = Multi_heap.run problem doc in
      let s_matches, _ = Single_heap.run ~pruning:Types.No_prune problem doc in
      m_matches = s_matches)

let prop_multi_equals_single_word =
  QCheck.Test.make ~count:150 ~name:"multi-heap == single-heap (token sims)"
    arb_word_instance
    (fun (entities, doc_text, sim) ->
      let problem = Problem.create ~sim ~q:1 entities in
      let doc = Problem.tokenize_document problem doc_text in
      let m_matches, _ = Multi_heap.run problem doc in
      let s_matches, _ = Single_heap.run ~pruning:Types.No_prune problem doc in
      m_matches = s_matches)

(* Candidate counts shrink as pruning strengthens. *)
let prop_candidates_monotone =
  QCheck.Test.make ~count:200 ~name:"pruning reduces the candidate metric"
    arb_char_instance
    (fun (entities, doc_text, sim, q) ->
      let problem = Problem.create ~sim ~q entities in
      let doc = Problem.tokenize_document problem doc_text in
      let count pruning =
        let _, (stats : Types.stats) = Single_heap.candidates ~pruning problem doc in
        stats.Types.candidates
      in
      let none = count Types.No_prune in
      let lazy_ = count Types.Lazy_count in
      let binary = count Types.Binary_window in
      (* Bucket counting can examine one substring from two bucket slices
         (each with a partial count), so its entry metric is not pointwise
         below lazy's; the lazy and binary metrics are true subsets. *)
      none >= lazy_ && none >= binary)

(* ------------------------------------------------------------------ *)
(* Fallback                                                            *)
(* ------------------------------------------------------------------ *)

let test_fallback_short_entity () =
  (* Entity shorter than q can still be found. *)
  let problem = Problem.create ~sim:(Sim.Edit_distance 0) ~q:4 [ "ab" ] in
  let doc = Problem.tokenize_document problem "xxabyy" in
  let ms = Fallback.run problem doc in
  Alcotest.(check (list (triple int int int))) "found" [ (0, 2, 2) ] (triples ms)

let test_fallback_vacuous_threshold () =
  (* tau * q >= |e|: zero shared grams possible; fallback must find it. *)
  let problem = Problem.create ~sim:(Sim.Edit_distance 2) ~q:3 [ "abcd" ] in
  check_bool "on fallback path" true
    ((Problem.info problem 0).Problem.path = Problem.Fallback);
  let doc = Problem.tokenize_document problem "zzabcdzz" in
  let ms = Fallback.run problem doc in
  check_bool "exact occurrence found" true
    (List.exists
       (fun (m : Types.char_match) -> m.Types.c_start = 2 && m.Types.c_len = 4)
       ms)

let test_fallback_empty_for_indexed_only () =
  let problem = Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 paper_dict in
  let doc = Problem.tokenize_document problem paper_doc in
  Alcotest.(check (list (triple int int int))) "nothing" [] (triples (Fallback.run problem doc))

let test_fallback_char_bounds () =
  Alcotest.(check (pair int int))
    "ed bounds" (3, 7)
    (Fallback.char_length_bounds (Sim.Edit_distance 2) ~e_chars:5);
  Alcotest.(check (pair int int))
    "eds bounds" (9, 11)
    (Fallback.char_length_bounds (Sim.Edit_similarity 0.85) ~e_chars:10)

let verifiers = S.Verify.[ Auto; Myers; Banded ]

let search_equals_exhaustive problem doc =
  List.for_all
    (fun verifier ->
      Fallback.run ~verifier problem doc
      = Fallback.exhaustive ~verifier problem doc)
    verifiers

(* Short entities at loose thresholds put most of them on the fallback
   path, where the search pass must find exactly what checking every
   admissible substring finds. *)
let arb_fallback_instance =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4) (gen_char_string 1 12) >>= fun entities ->
      gen_char_string 0 60 >>= fun doc ->
      int_range 2 4 >>= fun q ->
      oneof
        [
          map (fun tau -> Sim.Edit_distance tau) (int_range 0 4);
          map (fun d -> Sim.Edit_similarity d) (oneofl [ 0.5; 0.7; 0.85; 1.0 ]);
        ]
      >>= fun sim -> return (entities, doc, sim, q))
  in
  QCheck.make
    ~print:(fun (es, doc, sim, q) ->
      Printf.sprintf "sim=%s q=%d entities=[%s] doc=%S" (Sim.to_string sim) q
        (String.concat "; " es) doc)
    gen

let prop_fallback_search_equals_exhaustive =
  QCheck.Test.make ~count:300 ~name:"Fallback.run == Fallback.exhaustive"
    arb_fallback_instance
    (fun (entities, doc_text, sim, q) ->
      let problem = Problem.create ~sim ~q entities in
      search_equals_exhaustive problem (Problem.tokenize_document problem doc_text))

let test_fallback_long_entity () =
  (* Past one machine word the search pass does not apply and every
     admissible substring is verified. *)
  let e = String.init 64 (fun i -> "abcab".[i mod 5]) in
  let problem = Problem.create ~sim:(Sim.Edit_distance 16) ~q:4 [ e ] in
  check_bool "on fallback path" true
    ((Problem.info problem 0).Problem.path = Problem.Fallback);
  let edited = String.sub e 0 30 ^ "cc" ^ String.sub e 33 31 in
  let doc = Problem.tokenize_document problem ("cc" ^ edited ^ "bb") in
  check_bool "found" true (Fallback.run problem doc <> []);
  check_bool "run == exhaustive" true (search_equals_exhaustive problem doc)

let test_fallback_counts_pairs () =
  (* fallback_verify_calls counts the admissible (start, len) pairs, the
     loop-bounds sum an external replay recomputes, not the pairs the
     search pass lets through to the verifier. *)
  let sim = Sim.Edit_distance 2 in
  let problem = Problem.create ~sim ~q:4 [ "abcdefghij" ] in
  check_bool "on fallback path" true
    ((Problem.info problem 0).Problem.path = Problem.Fallback);
  let doc =
    Problem.tokenize_document problem
      "zzzzzzzzzzzz abcdefghxj zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"
  in
  let n = String.length (Tk.Document.text doc) in
  let lo, hi = Fallback.char_length_bounds sim ~e_chars:10 in
  let pairs = ref 0 in
  for len = lo to min hi n do
    pairs := !pairs + (n - len + 1)
  done;
  let value name =
    Faerie_obs.Metrics.counter_value (Faerie_obs.Metrics.snapshot ()) name
  in
  let calls0 = value "fallback_verify_calls" and scores0 = value "verify_scores" in
  let ms = Fallback.run problem doc in
  check_bool "found" true (ms <> []);
  check_int "pairs counted" !pairs (value "fallback_verify_calls" - calls0);
  check_bool "fewer scorings than pairs" true
    (value "verify_scores" - scores0 < !pairs)

(* ------------------------------------------------------------------ *)
(* Extractor end-to-end                                                *)
(* ------------------------------------------------------------------ *)

let test_extract_paper_results () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let results = Extractor.extract ex paper_doc in
  let has text entity =
    List.exists
      (fun (r : Extractor.result) ->
        String.equal r.Extractor.matched_text text
        && String.equal r.Extractor.entity entity)
      results
  in
  check_bool "venkaee sh ~ venkatesh" true (has "venkaee sh" "venkatesh");
  check_bool "surauijt ch ~ surajit ch" true (has "surauijt ch" "surajit ch");
  check_bool "chadhuri ~ chaudhuri" true (has "chadhuri" "chaudhuri")

let test_extract_pruning_levels_agree () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let reference = Extractor.extract ~pruning:Types.No_prune ex paper_doc in
  List.iter
    (fun pruning ->
      let got = Extractor.extract ~pruning ex paper_doc in
      check_bool (Types.pruning_name pruning) true (got = reference))
    Types.all_prunings

let test_extract_empty_document () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 1) ~q:2 paper_dict in
  check_int "no results" 0 (List.length (Extractor.extract ex ""))

let test_extract_empty_dictionary () =
  let ex = Extractor.create ~sim:(Sim.Jaccard 0.8) [] in
  check_int "no results" 0 (List.length (Extractor.extract ex "some document"))

let test_extract_doc_shorter_than_q () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 1) ~q:4 [ "abcdef" ] in
  check_int "tiny doc, no crash" 0 (List.length (Extractor.extract ex "ab"))

let test_extract_exact_token_match_delta_one () =
  let ex = Extractor.create ~sim:(Sim.Jaccard 1.0) [ "dong xin" ] in
  let results = Extractor.extract ex "with dong xin here" in
  check_int "one match" 1 (List.length results);
  let r = List.hd results in
  Alcotest.(check string) "span text" "dong xin" r.Extractor.matched_text

let test_extract_token_swap_found () =
  (* Token multisets ignore order: "xin dong" matches at jaccard 1. *)
  let ex = Extractor.create ~sim:(Sim.Jaccard 1.0) [ "dong xin" ] in
  let results = Extractor.extract ex "by xin dong today" in
  check_bool "swapped tokens match" true
    (List.exists (fun r -> r.Extractor.matched_text = "xin dong") results)

let test_extract_results_sorted () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let results = Extractor.extract ex paper_doc in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        (a.Extractor.start_char, a.Extractor.len_chars, a.Extractor.entity_id)
        <= (b.Extractor.start_char, b.Extractor.len_chars, b.Extractor.entity_id)
        && sorted rest
    | _ -> true
  in
  check_bool "sorted" true (sorted results)

let test_extract_stats_populated () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let doc = Extractor.tokenize ex paper_doc in
  let report = Extractor.run ex (`Doc doc) in
  let stats = report.Extractor.stats in
  check_bool "entities seen" true (stats.Types.entities_seen > 0);
  check_bool "verified counted" true (stats.Types.verified > 0);
  check_bool "outcome ok" true (Outcome.is_ok report.Extractor.outcome);
  check_bool "elapsed non-negative" true (report.Extractor.elapsed_ns >= 0L)

let test_extract_duplicate_entities_both_reported () =
  (* Duplicate dictionary strings keep distinct ids; both must match. *)
  let ex = Extractor.create ~sim:(Sim.Edit_distance 0) ~q:2 [ "abc"; "abc" ] in
  let results = Extractor.extract ex "xxabcxx" in
  Alcotest.(check (list int))
    "both ids" [ 0; 1 ]
    (List.sort compare (List.map (fun r -> r.Extractor.entity_id) results))

let test_extract_entity_equals_document () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 0) ~q:2 [ "chaudhuri" ] in
  let results = Extractor.extract ex "chaudhuri" in
  check_int "whole document matches" 1 (List.length results);
  let r = List.hd results in
  check_int "full span" 9 r.Extractor.len_chars

let test_extract_overlapping_mentions () =
  (* Two entities overlapping in the text: both found. *)
  let ex = Extractor.create ~sim:(Sim.Edit_distance 0) ~q:2 [ "abcd"; "cdef" ] in
  let results = Extractor.extract ex "zabcdefz" in
  check_bool "abcd found" true
    (List.exists (fun r -> r.Extractor.matched_text = "abcd") results);
  check_bool "cdef found" true
    (List.exists (fun r -> r.Extractor.matched_text = "cdef") results)

let test_extract_punctuation_only_document () =
  let ex = Extractor.create ~sim:(Sim.Jaccard 0.5) [ "dong xin" ] in
  check_int "no tokens, no matches" 0
    (List.length (Extractor.extract ex "... !!! ,,,"))

let test_extract_repeated_mention () =
  let ex = Extractor.create ~sim:(Sim.Jaccard 1.0) [ "dong xin" ] in
  let results = Extractor.extract ex "dong xin and dong xin and dong xin" in
  check_int "three occurrences" 3
    (List.length
       (List.filter (fun r -> r.Extractor.matched_text = "dong xin") results))

let test_extract_tau_zero_is_exact_substring () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 0) ~q:3 [ "chaudhuri" ] in
  let results = Extractor.extract ex "with chaudhuri inside" in
  check_int "exactly one" 1 (List.length results);
  Alcotest.(check string) "text" "chaudhuri" (List.hd results).Extractor.matched_text

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_core"
    [
      ( "counting",
        [
          Alcotest.test_case "basic" `Quick test_counting_basic;
          Alcotest.test_case "len exceeds doc" `Quick test_counting_len_exceeds_doc;
          Alcotest.test_case "slice" `Quick test_counting_slice;
          q prop_counting_matches_brute;
        ] );
      ( "position_list",
        [
          Alcotest.test_case "paper buckets" `Quick test_buckets_paper;
          Alcotest.test_case "single bucket" `Quick test_buckets_single;
          Alcotest.test_case "empty" `Quick test_buckets_empty;
          Alcotest.test_case "negative gap" `Quick test_buckets_negative_gap;
          Alcotest.test_case "count_in_range" `Quick test_count_in_range;
          q prop_buckets_partition;
        ] );
      ( "windows",
        [
          Alcotest.test_case "paper example" `Quick test_windows_paper_example;
          Alcotest.test_case "tl > upper" `Quick test_windows_tl_greater_than_upper;
          Alcotest.test_case "all feasible" `Quick test_windows_all_feasible;
          Alcotest.test_case "binary span paper" `Quick test_binary_span_paper;
          Alcotest.test_case "binary shift skips" `Quick test_binary_shift_skips;
          q prop_windows_match_reference;
        ] );
      ( "problem",
        [
          Alcotest.test_case "paths" `Quick test_problem_paths;
          Alcotest.test_case "word empty entity" `Quick test_problem_word_empty_entity;
          Alcotest.test_case "globals" `Quick test_problem_globals;
          Alcotest.test_case "invalid args" `Quick test_problem_invalid_args;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "paper ed tau=2" `Quick test_equiv_paper_ed;
          Alcotest.test_case "paper ed tau=1" `Quick test_equiv_paper_ed_tau1;
          Alcotest.test_case "paper eds" `Quick test_equiv_paper_eds;
          Alcotest.test_case "word sims small" `Quick test_equiv_word_small;
          q prop_equiv_word;
          q prop_equiv_char;
          q prop_equiv_gram_mode_token_sims;
          q prop_multi_equals_single;
          q prop_multi_equals_single_word;
          q prop_candidates_monotone;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "short entity" `Quick test_fallback_short_entity;
          Alcotest.test_case "vacuous threshold" `Quick test_fallback_vacuous_threshold;
          Alcotest.test_case "empty for indexed" `Quick test_fallback_empty_for_indexed_only;
          Alcotest.test_case "char bounds" `Quick test_fallback_char_bounds;
          Alcotest.test_case "long entity" `Quick test_fallback_long_entity;
          Alcotest.test_case "counts admissible pairs" `Quick test_fallback_counts_pairs;
          q prop_fallback_search_equals_exhaustive;
        ] );
      ( "extractor",
        [
          Alcotest.test_case "paper results" `Quick test_extract_paper_results;
          Alcotest.test_case "pruning levels agree" `Quick test_extract_pruning_levels_agree;
          Alcotest.test_case "empty document" `Quick test_extract_empty_document;
          Alcotest.test_case "empty dictionary" `Quick test_extract_empty_dictionary;
          Alcotest.test_case "doc shorter than q" `Quick test_extract_doc_shorter_than_q;
          Alcotest.test_case "exact token match" `Quick test_extract_exact_token_match_delta_one;
          Alcotest.test_case "token swap" `Quick test_extract_token_swap_found;
          Alcotest.test_case "results sorted" `Quick test_extract_results_sorted;
          Alcotest.test_case "stats populated" `Quick test_extract_stats_populated;
          Alcotest.test_case "duplicate entities" `Quick test_extract_duplicate_entities_both_reported;
          Alcotest.test_case "entity equals document" `Quick test_extract_entity_equals_document;
          Alcotest.test_case "overlapping mentions" `Quick test_extract_overlapping_mentions;
          Alcotest.test_case "punctuation-only doc" `Quick test_extract_punctuation_only_document;
          Alcotest.test_case "repeated mention" `Quick test_extract_repeated_mention;
          Alcotest.test_case "tau zero exact" `Quick test_extract_tau_zero_is_exact_substring;
        ] );
    ]
