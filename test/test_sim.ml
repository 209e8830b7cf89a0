(* Tests for Faerie_sim: edit distance, unified thresholds (Lemmas 1-3),
   verification. *)

module S = Faerie_sim
module Sim = S.Sim
module Ed = S.Edit_distance
module Th = S.Thresholds
module Verify = S.Verify
module Tk = Faerie_tokenize

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Reference edit distance: naive full-matrix DP. *)
let reference_ed r s =
  let m = String.length r and n = String.length s in
  let d = Array.make_matrix (m + 1) (n + 1) 0 in
  for i = 0 to m do
    d.(i).(0) <- i
  done;
  for j = 0 to n do
    d.(0).(j) <- j
  done;
  for i = 1 to m do
    for j = 1 to n do
      let cost = if r.[i - 1] = s.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        min (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + cost)
    done
  done;
  d.(m).(n)

(* Multiset q-gram overlap of two strings. *)
let gram_overlap ~q r s =
  let i = Tk.Interner.create () in
  let toks spans = Tk.Token_ops.sorted_of_spans spans in
  Tk.Token_ops.multiset_overlap
    (toks (Tk.Tokenizer.qgrams_intern i ~q r))
    (toks (Tk.Tokenizer.qgrams_intern i ~q s))

let n_grams ~q s = max 0 (String.length s - q + 1)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_validate () =
  Sim.validate (Sim.Jaccard 0.5);
  Sim.validate (Sim.Edit_distance 0);
  check_bool "delta 0 invalid" true
    (try
       Sim.validate (Sim.Dice 0.);
       false
     with Invalid_argument _ -> true);
  check_bool "delta > 1 invalid" true
    (try
       Sim.validate (Sim.Cosine 1.1);
       false
     with Invalid_argument _ -> true);
  check_bool "tau < 0 invalid" true
    (try
       Sim.validate (Sim.Edit_distance (-1));
       false
     with Invalid_argument _ -> true)

let test_sim_char_based () =
  check_bool "ed" true (Sim.char_based (Sim.Edit_distance 1));
  check_bool "eds" true (Sim.char_based (Sim.Edit_similarity 0.9));
  check_bool "jac" false (Sim.char_based (Sim.Jaccard 0.9))

let test_sim_names () =
  Alcotest.(check (list string))
    "names"
    [ "jac"; "cos"; "dice"; "ed"; "eds" ]
    (List.map Sim.name
       [ Sim.Jaccard 0.5; Sim.Cosine 0.5; Sim.Dice 0.5; Sim.Edit_distance 1; Sim.Edit_similarity 0.5 ])

let test_sim_spec_roundtrip () =
  List.iter
    (fun sim ->
      match Sim.of_spec (Sim.to_spec sim) with
      | Ok sim' ->
          check_bool (Printf.sprintf "round-trip %s" (Sim.to_spec sim)) true
            (sim = sim')
      | Error e -> Alcotest.failf "of_spec rejected %s: %s" (Sim.to_spec sim) e)
    [
      Sim.Jaccard 0.8;
      Sim.Cosine 0.75;
      Sim.Dice 0.625;
      Sim.Edit_distance 2;
      Sim.Edit_similarity 0.85;
      (* An awkward float that the spec text must preserve exactly. *)
      Sim.Jaccard 0.7000000000001;
    ]

let test_sim_spec_parses () =
  check_bool "jac" true (Sim.of_spec "jac=0.8" = Ok (Sim.Jaccard 0.8));
  check_bool "ed" true (Sim.of_spec "ed=2" = Ok (Sim.Edit_distance 2));
  List.iter
    (fun bad ->
      match Sim.of_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ ""; "jac"; "jac=x"; "ed=1.5"; "hamming=2"; "jac=0.5=0.5" ]

(* ------------------------------------------------------------------ *)
(* Edit distance                                                       *)
(* ------------------------------------------------------------------ *)

let test_ed_paper_example () =
  (* Section 2.1: ed("surajit", "surauijt") = 2. *)
  check_int "paper pair" 2 (Ed.distance "surajit" "surauijt")

let test_ed_basics () =
  check_int "identical" 0 (Ed.distance "abc" "abc");
  check_int "empty-left" 3 (Ed.distance "" "abc");
  check_int "empty-right" 3 (Ed.distance "abc" "");
  check_int "substitution" 1 (Ed.distance "kitten" "sitten");
  check_int "kitten-sitting" 3 (Ed.distance "kitten" "sitting")

let test_eds_paper_example () =
  (* Section 2.1: eds("surajit", "surauijt") = 1 - 2/8 = 0.75. *)
  Alcotest.(check (float 1e-9)) "eds" 0.75 (Ed.similarity "surajit" "surauijt")

let test_eds_empty () =
  Alcotest.(check (float 1e-9)) "both empty" 1.0 (Ed.similarity "" "")

let test_within () =
  check_bool "within 2" true (Ed.within "surajit" "surauijt" 2);
  check_bool "not within 1" false (Ed.within "surajit" "surauijt" 1);
  check_bool "within 0 identical" true (Ed.within "x" "x" 0);
  check_bool "not within 0" false (Ed.within "x" "y" 0)

let test_distance_upto () =
  check_bool "exact when under cap" true
    (Ed.distance_upto ~cap:5 "kitten" "sitting" = Some 3);
  check_bool "none when over cap" true
    (Ed.distance_upto ~cap:2 "kitten" "sitting" = None);
  check_bool "negative cap" true (Ed.distance_upto ~cap:(-1) "a" "a" = None);
  check_bool "length gap prunes" true
    (Ed.distance_upto ~cap:2 "aaaaaaaa" "a" = None)

let gen_small_string =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 12))

let arb_small_string = QCheck.make ~print:(fun s -> s) gen_small_string

let prop_ed_matches_reference =
  QCheck.Test.make ~count:500 ~name:"distance matches full-matrix reference"
    (QCheck.pair arb_small_string arb_small_string)
    (fun (r, s) -> Ed.distance r s = reference_ed r s)

let prop_ed_symmetric =
  QCheck.Test.make ~count:300 ~name:"distance symmetric"
    (QCheck.pair arb_small_string arb_small_string)
    (fun (r, s) -> Ed.distance r s = Ed.distance s r)

let prop_ed_triangle =
  QCheck.Test.make ~count:200 ~name:"triangle inequality"
    (QCheck.triple arb_small_string arb_small_string arb_small_string)
    (fun (a, b, c) -> Ed.distance a c <= Ed.distance a b + Ed.distance b c)

let prop_distance_upto_agrees =
  QCheck.Test.make ~count:500 ~name:"banded DP agrees with full DP"
    (QCheck.triple arb_small_string arb_small_string (QCheck.int_bound 6))
    (fun (r, s, cap) ->
      let full = Ed.distance r s in
      match Ed.distance_upto ~cap r s with
      | Some d -> d = full && d <= cap
      | None -> full > cap)

(* Differential: the Myers bit-parallel engine, the banded DP and the full
   DP must agree on every input, including tau = 0 and equal strings. *)
let upto_checks (r, s, cap) =
  let full = reference_ed r s in
  let agree = function
    | Some d -> d = full && d <= cap
    | None -> full > cap
  in
  agree (Ed.distance_upto_myers ~cap r s)
  && agree (Ed.distance_upto_banded ~cap r s)
  && Ed.distance_upto_myers ~cap r s = Ed.distance_upto_banded ~cap r s

let prop_myers_matches_banded =
  QCheck.Test.make ~count:1000 ~name:"Myers == banded == full DP"
    (QCheck.triple arb_small_string arb_small_string (QCheck.int_bound 6))
    upto_checks

(* The search form: its hits are exactly the ends j where some substring
   t[i..j) lies within the cap. Texts embed an edited copy of the pattern
   so that long patterns hit too. *)
let gen_search_case =
  QCheck.Gen.(
    let* k = int_range 2 4 in
    let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound (k - 1)) in
    let str len = string_size ~gen:letter (return len) in
    let* m = oneof [ int_range 1 8; int_range 1 Ed.myers_max_len ] in
    let* p = str m in
    let* copy =
      (* one insertion, deletion or substitution at i *)
      let edit s =
        let n = String.length s in
        let* i = int_bound n in
        let* c = map (String.make 1) letter in
        let pre = String.sub s 0 i and post k = String.sub s (i + k) (n - i - k) in
        oneofl
          ((pre ^ c ^ post 0) :: (if i < n then [ pre ^ post 1; pre ^ c ^ post 1 ] else []))
      in
      let* edits = int_bound 3 in
      let rec go s e = if e = 0 then return s else edit s >>= fun s -> go s (e - 1) in
      oneof [ go p edits; (int_bound 12 >>= str) ]
    in
    let* pre = int_bound 12 >>= str in
    let* post = int_bound 12 >>= str in
    let* cap = int_bound 4 in
    return (p, pre ^ copy ^ post, cap))

let prop_search_ends_reference =
  QCheck.Test.make ~count:300 ~name:"Myers search ends == min over starts of full DP"
    (QCheck.make
       ~print:(fun (p, t, cap) -> Printf.sprintf "p=%S t=%S cap=%d" p t cap)
       gen_search_case)
    (fun (p, t, cap) ->
      let m = String.length p in
      let got = ref [] in
      Ed.iter_search_ends ~cap p ~text:t ~f:(fun j -> got := j :: !got);
      (* A substring whose length differs from |p| by more than [cap] is
         farther than [cap], so only starts near j - |p| can hit. *)
      let hit j =
        List.exists
          (fun i ->
            abs (j - i - m) <= cap && Ed.distance p (String.sub t i (j - i)) <= cap)
          (List.init (j + 1) Fun.id)
      in
      List.rev !got = List.filter hit (List.init (String.length t) (fun j -> j + 1)))

let test_search_ends_batches () =
  (* More hits than the per-domain buffer holds, with the Myers verifier
     run on the shared bit table between them: every end still arrives,
     in order. *)
  let text = String.concat "" (List.init 1000 (fun _ -> "abx")) in
  let got = ref [] in
  Ed.iter_search_ends ~cap:0 "ab" ~text ~f:(fun j ->
      check_bool "verifier between hits" true
        (Ed.distance_upto ~cap:1 "ab" (String.sub text (j - 2) 2) = Some 0);
      got := j :: !got);
  Alcotest.(check (list int))
    "every end" (List.init 1000 (fun i -> (3 * i) + 2)) (List.rev !got)

let prop_myers_tau_zero =
  QCheck.Test.make ~count:500 ~name:"Myers at tau=0 is string equality"
    (QCheck.pair arb_small_string arb_small_string)
    (fun (r, s) ->
      Ed.distance_upto_myers ~cap:0 r s
      = (if r = s then Some 0 else None)
      && Ed.distance_upto_myers ~cap:3 r r = Some 0)

(* Strings straddling the one-word boundary: the shorter side crosses
   [myers_max_len], forcing the banded fallback inside the Myers entry
   point; both engines must keep agreeing there. *)
let gen_long_string =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ])
      (int_range (Ed.myers_max_len - 3) (Ed.myers_max_len + 6)))

let arb_long_string = QCheck.make ~print:(fun s -> s) gen_long_string

let prop_myers_boundary_lengths =
  QCheck.Test.make ~count:400
    ~name:"Myers/banded agree across the word-width fallback boundary"
    (QCheck.triple arb_long_string arb_long_string (QCheck.int_bound 8))
    upto_checks

let test_myers_boundary_exact () =
  (* Deterministic pins at len = myers_max_len and just past it. *)
  List.iter
    (fun n ->
      let a = String.make n 'a' in
      let b = String.make n 'b' in
      let a' = String.init n (fun i -> if i = n / 2 then 'x' else 'a') in
      check_bool
        (Printf.sprintf "equal len %d" n)
        true
        (Ed.distance_upto_myers ~cap:0 a a = Some 0);
      check_bool
        (Printf.sprintf "one sub len %d" n)
        true
        (Ed.distance_upto_myers ~cap:1 a a' = Some 1);
      check_bool
        (Printf.sprintf "all differ len %d" n)
        true
        (Ed.distance_upto_myers ~cap:2 a b = None))
    [ Ed.myers_max_len - 1; Ed.myers_max_len; Ed.myers_max_len + 1;
      Ed.myers_max_len + 5 ]

(* ------------------------------------------------------------------ *)
(* Thresholds: paper's worked examples                                 *)
(* ------------------------------------------------------------------ *)

let test_bounds_paper_eds () =
  (* Section 2.3: e5 = "surajit ch", |e5| = 9, eds delta = 0.8, q = 2:
     lower = 7, upper = 11. *)
  Alcotest.(check (pair int int))
    "e5 bounds" (7, 11)
    (Th.substring_bounds (Sim.Edit_similarity 0.8) ~q:2 ~e_len:9)

let test_bounds_paper_ed () =
  (* Section 4.2: e4 = "venkatesh", |e4| = 8, tau = 2: bounds 6..10. *)
  Alcotest.(check (pair int int))
    "e4 bounds" (6, 10)
    (Th.substring_bounds (Sim.Edit_distance 2) ~q:2 ~e_len:8)

let test_overlap_paper_ed () =
  (* Section 3.1: e5 vs "surauijt ch" (10 grams), tau = 2, q = 2: T = 6. *)
  check_int "T" 6 (Th.overlap (Sim.Edit_distance 2) ~q:2 ~e_len:9 ~s_len:10)

let test_overlap_paper_single_heap () =
  (* Section 3.3: e4 = "venkatesh" (8 grams) vs D[1,9] (9 grams), tau = 2:
     T = 9 - 4 = 5. *)
  check_int "T" 5 (Th.overlap (Sim.Edit_distance 2) ~q:2 ~e_len:8 ~s_len:9)

let test_lazy_paper_ed () =
  (* Section 4.1: |e1| = 9, tau = 1, q = 2 => Tl = 7; |e4| = 8, tau = 2,
     q = 2 => Tl = 4. *)
  check_int "e1 Tl" 7 (Th.lazy_overlap (Sim.Edit_distance 1) ~q:2 ~e_len:9);
  check_int "e4 Tl" 4 (Th.lazy_overlap (Sim.Edit_distance 2) ~q:2 ~e_len:8)

let test_bucket_gap_ed () =
  (* Section 4.1 uses p_{i+1} - p_i - 1 > tau * q to split buckets. *)
  check_int "gap" 2 (Th.bucket_gap (Sim.Edit_distance 1) ~q:2 ~e_len:9)

let test_lower_clamped () =
  let lo, _ = Th.substring_bounds (Sim.Edit_distance 5) ~q:2 ~e_len:3 in
  check_int "lower clamped to 1" 1 lo

(* ------------------------------------------------------------------ *)
(* Thresholds: Lemma 1 / Lemma 2 as properties                          *)
(* ------------------------------------------------------------------ *)

let deltas = [ 0.5; 0.6; 0.75; 0.8; 0.9; 0.95; 1.0 ]

let token_sims =
  List.concat_map (fun d -> [ Sim.Jaccard d; Sim.Cosine d; Sim.Dice d ]) deltas

let arb_token_list =
  QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (int_bound 6))

let sorted_arr l = Array.of_list (List.sort compare l)

let prop_lemma1_token =
  QCheck.Test.make ~count:2000 ~name:"Lemma 1 (token sims): match => overlap >= T"
    (QCheck.pair arb_token_list arb_token_list)
    (fun (e, s) ->
      let e_arr = sorted_arr e and s_arr = sorted_arr s in
      let o = Tk.Token_ops.multiset_overlap e_arr s_arr in
      List.for_all
        (fun sim ->
          let score = Verify.token_score sim ~e_tokens:e_arr ~s_tokens:s_arr in
          (not (Verify.Score.passes sim score))
          || o >= Th.overlap sim ~q:1 ~e_len:(List.length e) ~s_len:(List.length s))
        token_sims)

let prop_lemma2_token =
  QCheck.Test.make ~count:2000 ~name:"Lemma 2 (token sims): match => |s| in bounds"
    (QCheck.pair arb_token_list arb_token_list)
    (fun (e, s) ->
      let e_arr = sorted_arr e and s_arr = sorted_arr s in
      List.for_all
        (fun sim ->
          let score = Verify.token_score sim ~e_tokens:e_arr ~s_tokens:s_arr in
          (not (Verify.Score.passes sim score))
          ||
          let lo, hi = Th.substring_bounds sim ~q:1 ~e_len:(List.length e) in
          let sl = List.length s in
          sl >= lo && sl <= hi)
        token_sims)

let char_settings =
  [
    (2, Sim.Edit_distance 0); (2, Sim.Edit_distance 1); (2, Sim.Edit_distance 2);
    (3, Sim.Edit_distance 1); (3, Sim.Edit_distance 3);
    (2, Sim.Edit_similarity 0.8); (2, Sim.Edit_similarity 0.9);
    (3, Sim.Edit_similarity 0.7); (2, Sim.Edit_similarity 1.0);
  ]

let prop_lemma1_char =
  QCheck.Test.make ~count:2000 ~name:"Lemma 1 (ed/eds): match => gram overlap >= T"
    (QCheck.pair arb_small_string arb_small_string)
    (fun (r, s) ->
      List.for_all
        (fun (q, sim) ->
          let score = Verify.char_score sim ~e_str:r ~s_str:s in
          (not (Verify.Score.passes sim score))
          ||
          let e_len = n_grams ~q r and s_len = n_grams ~q s in
          gram_overlap ~q r s >= Th.overlap sim ~q ~e_len ~s_len)
        char_settings)

let prop_lemma2_char =
  QCheck.Test.make ~count:2000 ~name:"Lemma 2 (ed/eds): match => gram count in bounds"
    (QCheck.pair arb_small_string arb_small_string)
    (fun (r, s) ->
      List.for_all
        (fun (q, sim) ->
          let e_len = n_grams ~q r and s_len = n_grams ~q s in
          if e_len = 0 || s_len = 0 then true
          else begin
            let score = Verify.char_score sim ~e_str:r ~s_str:s in
            (not (Verify.Score.passes sim score))
            ||
            let lo, hi = Th.substring_bounds sim ~q ~e_len in
            s_len >= lo && s_len <= hi
          end)
        char_settings)

let all_sims_with_q = List.map (fun s -> (1, s)) token_sims @ char_settings

let prop_lazy_is_min_of_overlap =
  QCheck.Test.make ~count:500 ~name:"Lemma 3: Tl <= T for every valid length"
    (QCheck.int_range 1 40)
    (fun e_len ->
      List.for_all
        (fun (q, sim) ->
          let tl = Th.lazy_overlap sim ~q ~e_len in
          let lo, hi = Th.substring_bounds sim ~q ~e_len in
          hi < lo
          || List.for_all
               (fun s_len -> tl <= Th.overlap sim ~q ~e_len ~s_len)
               (List.init (hi - lo + 1) (fun i -> lo + i)))
        all_sims_with_q)

let prop_lazy_at_least_paper =
  QCheck.Test.make ~count:500
    ~name:"exact Tl is never looser than the paper's closed form"
    (QCheck.int_range 1 40)
    (fun e_len ->
      List.for_all
        (fun (q, sim) ->
          Th.lazy_overlap sim ~q ~e_len >= Th.lazy_overlap_paper sim ~q ~e_len)
        all_sims_with_q)

let prop_bucket_gap_nonneg_when_feasible =
  QCheck.Test.make ~count:300 ~name:"bucket gap sane"
    (QCheck.int_range 1 40)
    (fun e_len ->
      List.for_all
        (fun (q, sim) ->
          let tl = Th.lazy_overlap sim ~q ~e_len in
          let _, hi = Th.substring_bounds sim ~q ~e_len in
          let gap = Th.bucket_gap sim ~q ~e_len in
          if tl >= 1 && tl <= hi then gap >= 0 else true)
        all_sims_with_q)

(* ------------------------------------------------------------------ *)
(* Verify                                                              *)
(* ------------------------------------------------------------------ *)

let intern_words l =
  let i = Tk.Interner.create () in
  List.map (fun w -> Tk.Interner.intern i w) l |> sorted_arr

let test_verify_paper_token_scores () =
  (* Section 2.1: jac = 2/3, cos = 2/sqrt 6, dice = 4/5 for
     ("sigmod 2011 conference", "sigmod 2011"). *)
  let e = intern_words [ "sigmod"; "2011"; "conference" ] in
  let s = Array.sub e 0 2 in
  let sim_val s' =
    match s' with Verify.Score.Similarity v -> v | _ -> assert false
  in
  Alcotest.(check (float 1e-9))
    "jaccard" (2. /. 3.)
    (sim_val (Verify.token_score (Sim.Jaccard 0.5) ~e_tokens:e ~s_tokens:s));
  Alcotest.(check (float 1e-9))
    "cosine" (2. /. sqrt 6.)
    (sim_val (Verify.token_score (Sim.Cosine 0.5) ~e_tokens:e ~s_tokens:s));
  Alcotest.(check (float 1e-9))
    "dice" 0.8
    (sim_val (Verify.token_score (Sim.Dice 0.5) ~e_tokens:e ~s_tokens:s))

let test_verify_char_scores () =
  check_bool "ed within" true
    (Verify.Score.passes (Sim.Edit_distance 2)
       (Verify.char_score (Sim.Edit_distance 2) ~e_str:"surajit" ~s_str:"surauijt"));
  check_bool "ed beyond" false
    (Verify.Score.passes (Sim.Edit_distance 1)
       (Verify.char_score (Sim.Edit_distance 1) ~e_str:"surajit" ~s_str:"surauijt"));
  check_bool "eds 0.75 passes 0.75" true
    (Verify.Score.passes (Sim.Edit_similarity 0.75)
       (Verify.char_score (Sim.Edit_similarity 0.75) ~e_str:"surajit" ~s_str:"surauijt"));
  check_bool "eds 0.75 fails 0.8" false
    (Verify.Score.passes (Sim.Edit_similarity 0.8)
       (Verify.char_score (Sim.Edit_similarity 0.8) ~e_str:"surajit" ~s_str:"surauijt"))

let test_verify_exact_threshold_one () =
  let e = intern_words [ "a"; "b" ] in
  check_bool "identical multisets pass delta=1" true
    (Verify.Score.passes (Sim.Jaccard 1.0)
       (Verify.token_score (Sim.Jaccard 1.0) ~e_tokens:e ~s_tokens:e))

let test_verify_kind_mismatch () =
  check_bool "token_score rejects ed" true
    (try
       ignore (Verify.token_score (Sim.Edit_distance 1) ~e_tokens:[||] ~s_tokens:[||]);
       false
     with Invalid_argument _ -> true);
  check_bool "char_score rejects jac" true
    (try
       ignore (Verify.char_score (Sim.Jaccard 0.5) ~e_str:"" ~s_str:"");
       false
     with Invalid_argument _ -> true)

let test_score_compare () =
  let open Verify.Score in
  check_bool "higher sim first" true (compare (Similarity 0.9) (Similarity 0.5) < 0);
  check_bool "lower distance first" true (compare (Distance 1) (Distance 3) < 0)

let prop_eds_score_consistent =
  QCheck.Test.make ~count:500
    ~name:"eds char_score matches direct formula when passing"
    (QCheck.pair arb_small_string arb_small_string)
    (fun (r, s) ->
      List.for_all
        (fun d ->
          let sim = Sim.Edit_similarity d in
          let score = Verify.char_score sim ~e_str:r ~s_str:s in
          let direct = Ed.similarity r s in
          match score with
          | Verify.Score.Similarity v ->
              if Verify.Score.passes sim score then abs_float (v -. direct) < 1e-9
              else direct < d +. 1e-9
          | Verify.Score.Distance _ -> false)
        [ 0.5; 0.8; 1.0 ])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_sim"
    [
      ( "sim",
        [
          Alcotest.test_case "validate" `Quick test_sim_validate;
          Alcotest.test_case "char_based" `Quick test_sim_char_based;
          Alcotest.test_case "names" `Quick test_sim_names;
          Alcotest.test_case "spec roundtrip" `Quick test_sim_spec_roundtrip;
          Alcotest.test_case "spec parses" `Quick test_sim_spec_parses;
        ] );
      ( "edit_distance",
        [
          Alcotest.test_case "paper example" `Quick test_ed_paper_example;
          Alcotest.test_case "basics" `Quick test_ed_basics;
          Alcotest.test_case "eds paper example" `Quick test_eds_paper_example;
          Alcotest.test_case "eds empty" `Quick test_eds_empty;
          Alcotest.test_case "within" `Quick test_within;
          Alcotest.test_case "distance_upto" `Quick test_distance_upto;
          Alcotest.test_case "myers boundary pins" `Quick test_myers_boundary_exact;
          q prop_ed_matches_reference;
          q prop_ed_symmetric;
          q prop_ed_triangle;
          q prop_distance_upto_agrees;
          q prop_myers_matches_banded;
          q prop_myers_tau_zero;
          q prop_search_ends_reference;
          Alcotest.test_case "search ends past one buffer" `Quick test_search_ends_batches;
          q prop_myers_boundary_lengths;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "paper eds bounds" `Quick test_bounds_paper_eds;
          Alcotest.test_case "paper ed bounds" `Quick test_bounds_paper_ed;
          Alcotest.test_case "paper overlap T" `Quick test_overlap_paper_ed;
          Alcotest.test_case "paper single-heap T" `Quick test_overlap_paper_single_heap;
          Alcotest.test_case "paper lazy Tl" `Quick test_lazy_paper_ed;
          Alcotest.test_case "bucket gap ed" `Quick test_bucket_gap_ed;
          Alcotest.test_case "lower clamped" `Quick test_lower_clamped;
          q prop_lemma1_token;
          q prop_lemma2_token;
          q prop_lemma1_char;
          q prop_lemma2_char;
          q prop_lazy_is_min_of_overlap;
          q prop_lazy_at_least_paper;
          q prop_bucket_gap_nonneg_when_feasible;
        ] );
      ( "verify",
        [
          Alcotest.test_case "paper token scores" `Quick test_verify_paper_token_scores;
          Alcotest.test_case "char scores" `Quick test_verify_char_scores;
          Alcotest.test_case "delta=1 exact" `Quick test_verify_exact_threshold_one;
          Alcotest.test_case "kind mismatch" `Quick test_verify_kind_mismatch;
          Alcotest.test_case "score compare" `Quick test_score_compare;
          q prop_eds_score_consistent;
        ] );
    ]
