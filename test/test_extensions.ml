(* Tests for the production extensions: top-k, span selection, index codec,
   chunked (streaming) extraction, parallel extraction, merger/window/lazy
   ablation variants. *)

module Tk = Faerie_tokenize
module S = Faerie_sim
module Sim = S.Sim
module Core = Faerie_core
module Types = Core.Types
module Problem = Core.Problem
module Single_heap = Core.Single_heap
module Fallback = Core.Fallback
module Topk = Core.Topk
module Span_select = Core.Span_select
module Chunked = Core.Chunked
module Parallel = Core.Parallel
module Windows = Core.Windows
module Ix = Faerie_index
module Codec = Ix.Codec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let paper_dict =
  [ "kaushik ch"; "chakrabarti"; "chaudhuri"; "venkatesh"; "surajit ch" ]

let paper_doc =
  "an efficient filter for approximate membership checking. venkaee shga \
   kamunshik kabarati, dong xin, surauijt chadhurisigmod."

let all_char_matches ?pruning problem doc =
  let matches, _ = Single_heap.run ?pruning problem doc in
  let main =
    List.map
      (fun (m : Types.token_match) ->
        let c_start, c_len =
          Tk.Document.char_extent doc ~start:m.Types.m_start ~len:m.Types.m_len
        in
        { Types.c_entity = m.Types.m_entity; c_start; c_len; c_score = m.Types.m_score })
      matches
  in
  List.sort_uniq Types.compare_char_match (Fallback.run problem doc @ main)

let triples =
  List.map (fun (m : Types.char_match) -> (m.Types.c_entity, m.Types.c_start, m.Types.c_len))

(* ------------------------------------------------------------------ *)
(* Top-k                                                               *)
(* ------------------------------------------------------------------ *)

let ed_problem () = Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict

let test_topk_best_is_exact_match () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem "we saw chaudhuri at sigmod" in
  match Topk.best problem doc with
  | Some m ->
      check_bool "best is the ed=0 hit" true (m.Types.c_score = S.Verify.Score.Distance 0)
  | None -> Alcotest.fail "expected a match"

let test_topk_sorted_and_bounded () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let all = all_char_matches problem doc in
  let k = 3 in
  let top = Topk.top_k ~k problem doc in
  check_int "k results" k (List.length top);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        S.Verify.Score.compare a.Types.c_score b.Types.c_score <= 0 && sorted rest
    | _ -> true
  in
  check_bool "best first" true (sorted top);
  check_bool "subset of all matches" true
    (List.for_all (fun m -> List.mem m all) top)

let test_topk_equals_sorted_prefix () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let all = all_char_matches problem doc in
  let expected k =
    let sorted =
      List.sort
        (fun a b ->
          let c = S.Verify.Score.compare a.Types.c_score b.Types.c_score in
          if c <> 0 then c else Types.compare_char_match a b)
        all
    in
    List.filteri (fun i _ -> i < k) sorted
  in
  List.iter
    (fun k ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "k=%d" k)
        (triples (expected k))
        (triples (Topk.top_k ~k problem doc)))
    [ 0; 1; 2; 5; 100 ]

let test_topk_k_zero_and_larger_than_matches () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  check_int "k=0" 0 (List.length (Topk.top_k ~k:0 problem doc));
  let all = all_char_matches problem doc in
  check_int "k=1000 returns all" (List.length all)
    (List.length (Topk.top_k ~k:1000 problem doc))

let test_topk_includes_fallback () =
  let problem = Problem.create ~sim:(Sim.Edit_distance 0) ~q:4 [ "ab" ] in
  let doc = Problem.tokenize_document problem "xxabyy" in
  check_bool "fallback entity wins" true (Topk.best problem doc <> None)

let gen_char_string_pre lo hi =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range lo hi))

let prop_topk_is_sorted_prefix =
  QCheck.Test.make ~count:150 ~name:"top-k equals k-prefix of score-sorted matches"
    QCheck.(
      make
        ~print:(fun (es, doc, k) ->
          Printf.sprintf "dict=[%s] doc=%S k=%d" (String.concat ";" es) doc k)
        Gen.(
          triple
            (list_size (int_range 1 4) (gen_char_string_pre 2 8))
            (gen_char_string_pre 8 30) (int_bound 8)))
    (fun (entities, text, k) ->
      let problem = Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 entities in
      let doc = Problem.tokenize_document problem text in
      let all = all_char_matches problem doc in
      let expected =
        List.sort
          (fun a b ->
            let c = S.Verify.Score.compare a.Types.c_score b.Types.c_score in
            if c <> 0 then c else Types.compare_char_match a b)
          all
        |> List.filteri (fun i _ -> i < k)
      in
      triples (Topk.top_k ~k problem doc) = triples expected)

(* ------------------------------------------------------------------ *)
(* Span selection                                                      *)
(* ------------------------------------------------------------------ *)

let mk_span ?(entity = 0) ?(score = 1.0) start len =
  {
    Types.c_entity = entity;
    c_start = start;
    c_len = len;
    c_score = S.Verify.Score.Similarity score;
  }

let no_overlap ms =
  let rec loop = function
    | a :: (b :: _ as rest) ->
        a.Types.c_start + a.Types.c_len <= b.Types.c_start && loop rest
    | _ -> true
  in
  loop (List.sort (fun a b -> compare a.Types.c_start b.Types.c_start) ms)

let total_weight w ms = List.fold_left (fun acc m -> acc +. w m) 0. ms

let test_select_simple () =
  (* Two overlapping weak spans vs one strong one. *)
  let a = mk_span ~score:0.6 0 4
  and b = mk_span ~score:0.6 5 4
  and c = mk_span ~score:1.0 2 4 in
  let picked = Span_select.select [ a; b; c ] in
  check_bool "non-overlapping" true (no_overlap picked);
  Alcotest.(check (list (triple int int int))) "keeps both disjoint weak spans"
    [ (0, 0, 4); (0, 5, 4) ]
    (triples picked)

let test_select_empty () =
  check_int "empty" 0 (List.length (Span_select.select []))

let test_select_touching_spans_kept () =
  let picked = Span_select.select [ mk_span 0 3; mk_span 3 3 ] in
  check_int "both kept" 2 (List.length picked)

let test_select_negative_weight_rejected () =
  check_bool "raises" true
    (try
       ignore (Span_select.select ~weight:(fun _ -> -1.) [ mk_span 0 1 ]);
       false
     with Invalid_argument _ -> true)

(* brute force: maximum weight over all non-overlapping subsets *)
let brute_best w ms =
  let arr = Array.of_list ms in
  let n = Array.length arr in
  let best = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let subset = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list arr) in
    ignore subset;
    let chosen = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) ms in
    if no_overlap chosen then begin
      let tw = total_weight w chosen in
      if tw > !best then best := tw
    end
  done;
  !best

let arb_spans =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 9)
        (triple (int_bound 30) (int_range 1 8) (int_range 1 10)))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (s, n, w) -> Printf.sprintf "(%d,%d,%d)" s n w) l))
    gen

let prop_select_optimal =
  QCheck.Test.make ~count:400 ~name:"select matches brute-force optimum"
    arb_spans
    (fun spans ->
      let ms =
        List.map (fun (s, n, w) -> mk_span ~score:(float_of_int w) s n) spans
      in
      let w = Span_select.default_weight in
      let picked = Span_select.select ms in
      no_overlap picked
      && abs_float (total_weight w picked -. brute_best w ms) < 1e-9)

let prop_greedy_nonoverlapping =
  QCheck.Test.make ~count:400 ~name:"greedy picks non-overlapping spans"
    arb_spans
    (fun spans ->
      let ms =
        List.map (fun (s, n, w) -> mk_span ~score:(float_of_int w) s n) spans
      in
      no_overlap (Span_select.greedy_best ms))

let test_default_weight () =
  check_bool "similarity as-is" true
    (Span_select.default_weight (mk_span ~score:0.7 0 1) = 0.7);
  check_bool "distance inverted" true
    (Span_select.default_weight
       { (mk_span 0 1) with Types.c_score = S.Verify.Score.Distance 1 }
    = 0.5)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip_gram () =
  let problem = ed_problem () in
  let dict = Problem.dictionary problem and index = Problem.index problem in
  let data = Codec.encode dict index in
  let dict', index' = Codec.decode data in
  let problem' = Problem.of_index ~sim:(Sim.Edit_distance 2) index' in
  let doc = Problem.tokenize_document problem paper_doc in
  let doc' = Ix.Dictionary.tokenize_document dict' paper_doc in
  Alcotest.(check (list (triple int int int)))
    "same extraction"
    (triples (all_char_matches problem doc))
    (triples (all_char_matches problem' doc'))

let test_codec_roundtrip_word () =
  let problem = Problem.create ~sim:(Sim.Jaccard 0.5) [ "dong xin"; "surajit chaudhuri" ] in
  let data = Codec.encode (Problem.dictionary problem) (Problem.index problem) in
  let _, index' = Codec.decode data in
  let problem' = Problem.of_index ~sim:(Sim.Jaccard 0.5) index' in
  let text = "with dong xin and chaudhuri" in
  let doc = Problem.tokenize_document problem text in
  let doc' = Problem.tokenize_document problem' text in
  Alcotest.(check (list (triple int int int)))
    "same extraction"
    (triples (all_char_matches problem doc))
    (triples (all_char_matches problem' doc'))

let test_codec_save_load_file () =
  let problem = ed_problem () in
  let path = Filename.temp_file "faerie" ".idx" in
  Codec.save (Problem.dictionary problem) (Problem.index problem) path;
  let dict', _ = Codec.load path in
  Sys.remove path;
  check_int "entities preserved" 5 (Ix.Dictionary.size dict')

let test_codec_detects_corruption () =
  let problem = ed_problem () in
  let data = Codec.encode (Problem.dictionary problem) (Problem.index problem) in
  (* Torn-write prefixes surface as [Truncated], everything else as
     [Corrupt]; both must reject the payload. *)
  let expect_corrupt name data =
    check_bool name true
      (try
         ignore (Codec.decode data);
         false
       with Codec.Corrupt _ | Codec.Truncated _ -> true)
  in
  expect_corrupt "bad magic" ("XX" ^ String.sub data 2 (String.length data - 2));
  expect_corrupt "truncated" (String.sub data 0 (String.length data / 2));
  let flipped = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x55));
  expect_corrupt "bit flip" (Bytes.to_string flipped);
  expect_corrupt "trailing garbage" (data ^ "zz");
  expect_corrupt "empty" ""

let test_codec_encoding_is_compact () =
  let problem = ed_problem () in
  let data = Codec.encode (Problem.dictionary problem) (Problem.index problem) in
  (* Well under the naive in-memory footprint. *)
  check_bool "compact" true
    (String.length data
    < Ix.Inverted_index.heap_bytes (Problem.index problem))

(* Torn-write prefixes of a real snapshot file must come back [Truncated]
   (never [Corrupt], never success) all the way through {!Codec.load}. *)
let test_codec_load_truncated_file () =
  let problem = ed_problem () in
  let data = Codec.encode (Problem.dictionary problem) (Problem.index problem) in
  let path = Filename.temp_file "faerie_trunc" ".fx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let n = String.length data in
  List.iter
    (fun len ->
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 len);
      close_out oc;
      let outcome =
        try
          ignore (Codec.load path);
          `Accepted
        with
        | Codec.Truncated _ -> `Truncated
        | Codec.Corrupt _ -> `Corrupt
      in
      (* Prefixes keep the checksum off the end, so every cut below [n]
         must be flagged; cuts inside the postings section specifically
         surface as the torn-write signature. *)
      check_bool (Printf.sprintf "prefix %d rejected" len) true
        (outcome <> `Accepted);
      if len >= n - 4 then
        check_bool
          (Printf.sprintf "prefix %d is Truncated" len)
          true (outcome = `Truncated))
    [ n - 1; n - 2; n - 4; n / 2; n * 3 / 4; 12 ]

(* Hand-crafted v2 payloads: a tiny two-token/two-entity dictionary with a
   postings section written by [mutate], checksummed like the real encoder,
   exercising every block validation branch in the decoder. *)
let craft_v2 mutate =
  let module V = Faerie_util.Varint in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "FAERIEIX";
  V.write buf 2 (* version *);
  V.write buf 0;
  V.write buf 0 (* word mode *);
  V.write buf 2 (* tokens *);
  V.write_string buf "aa";
  V.write_string buf "bb";
  V.write buf 2 (* entities *);
  V.write_string buf "aa";
  V.write buf 1;
  V.write buf 0;
  V.write_string buf "bb";
  V.write buf 1;
  V.write buf 1;
  V.write buf 2 (* posting lists *);
  mutate buf;
  let payload = Buffer.contents buf in
  let out = Buffer.create (String.length payload + 10) in
  Buffer.add_string out payload;
  V.write out (V.fnv1a payload);
  Buffer.contents out

let test_codec_v2_block_validation () =
  let module V = Faerie_util.Varint in
  let singleton buf id =
    V.write buf 1 (* count *);
    V.write buf 1 (* nbytes *);
    V.write buf id
  in
  (* Sanity: the well-formed crafted payload decodes. *)
  let good =
    craft_v2 (fun buf ->
        singleton buf 0;
        singleton buf 1)
  in
  let _, idx = Codec.decode good in
  check_int "crafted postings" 2 (Ix.Inverted_index.n_postings idx);
  let corrupt name data =
    check_bool name true
      (try
         ignore (Codec.decode data);
         false
       with Codec.Corrupt _ -> true)
  in
  corrupt "zero delta is non-ascending"
    (craft_v2 (fun buf ->
         V.write buf 2 (* count *);
         V.write buf 2 (* nbytes *);
         V.write buf 0;
         V.write buf 0 (* delta 0 after first id *);
         singleton buf 1));
  corrupt "block length mismatch"
    (craft_v2 (fun buf ->
         V.write buf 1 (* count *);
         V.write buf 2 (* nbytes, but the one id below is 1 byte *);
         V.write buf 0;
         Buffer.add_char buf '\x00' (* pad so nbytes stays in bounds *);
         singleton buf 1));
  corrupt "count exceeds block"
    (craft_v2 (fun buf ->
         V.write buf 5 (* count *);
         V.write buf 1 (* nbytes *);
         V.write buf 0;
         singleton buf 1));
  corrupt "entity id out of range"
    (craft_v2 (fun buf ->
         singleton buf 7 (* only 2 entities exist *);
         singleton buf 1));
  (* A block length pointing past the end of the input is the torn-write
     signature, even when the overall file still carries trailing bytes. *)
  check_bool "oversized nbytes is Truncated" true
    (try
       ignore
         (Codec.decode
            (craft_v2 (fun buf ->
                 V.write buf 1 (* count *);
                 V.write buf 200 (* nbytes past EOF *);
                 V.write buf 0;
                 singleton buf 1)));
       false
     with Codec.Truncated _ -> true)

(* ------------------------------------------------------------------ *)
(* Chunked extraction                                                  *)
(* ------------------------------------------------------------------ *)

let chunk_string rng s =
  (* random split of s into pieces *)
  let rec loop i acc =
    if i >= String.length s then List.rev acc
    else begin
      let n = min (String.length s - i) (1 + Faerie_util.Xorshift.int rng 7) in
      loop (i + n) (String.sub s i n :: acc)
    end
  in
  loop 0 []

let test_chunked_equals_whole_paper () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let whole = all_char_matches problem doc in
  let rng = Faerie_util.Xorshift.create 7 in
  List.iter
    (fun min_buffer_chars ->
      let pieces = List.to_seq (chunk_string rng paper_doc) in
      let chunked = Chunked.extract_seq ~min_buffer_chars problem pieces in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "buffer=%d" min_buffer_chars)
        (triples whole) (triples chunked))
    [ 16; 40; 64; 1000 ]

let test_chunked_empty_input () =
  let problem = ed_problem () in
  check_int "no pieces" 0 (List.length (Chunked.extract_seq problem Seq.empty));
  check_int "empty piece" 0
    (List.length (Chunked.extract_seq problem (List.to_seq [ ""; "" ])))

let test_chunked_with_fallback_entities () =
  (* "ab" is shorter than q: found by the fallback path across chunks. *)
  let problem = Problem.create ~sim:(Sim.Edit_distance 0) ~q:4 [ "ab"; "abcdef" ] in
  let text = "zzabzz abcdef zzab" in
  let doc = Problem.tokenize_document problem text in
  let whole = all_char_matches problem doc in
  let chunked =
    Chunked.extract_seq ~min_buffer_chars:8 problem
      (List.to_seq (chunk_string (Faerie_util.Xorshift.create 3) text))
  in
  Alcotest.(check (list (triple int int int))) "equal" (triples whole) (triples chunked)

let gen_word_string n_lo n_hi =
  QCheck.Gen.(
    list_size (int_range n_lo n_hi) (oneofl [ "aa"; "bb"; "cc"; "dd" ])
    |> map (String.concat " "))

let prop_chunked_equals_whole_word =
  QCheck.Test.make ~count:150 ~name:"chunked == whole (token sims)"
    QCheck.(
      make
        ~print:(fun (es, doc, seed) ->
          Printf.sprintf "dict=[%s] doc=%S seed=%d" (String.concat ";" es) doc seed)
        Gen.(
          triple
            (list_size (int_range 1 4) (gen_word_string 1 3))
            (gen_word_string 6 30) (int_bound 1000)))
    (fun (entities, text, seed) ->
      let problem = Problem.create ~sim:(Sim.Jaccard 0.6) entities in
      let doc = Problem.tokenize_document problem text in
      let whole = triples (all_char_matches problem doc) in
      let rng = Faerie_util.Xorshift.create seed in
      let chunked =
        Chunked.extract_seq ~min_buffer_chars:12 problem
          (List.to_seq (chunk_string rng text))
      in
      triples chunked = whole)

let gen_char_string lo hi =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range lo hi))

let prop_chunked_equals_whole_gram =
  QCheck.Test.make ~count:150 ~name:"chunked == whole (edit distance)"
    QCheck.(
      make
        ~print:(fun (es, doc, seed) ->
          Printf.sprintf "dict=[%s] doc=%S seed=%d" (String.concat ";" es) doc seed)
        Gen.(
          triple
            (list_size (int_range 1 4) (gen_char_string 2 8))
            (gen_char_string 10 60) (int_bound 1000)))
    (fun (entities, text, seed) ->
      let problem = Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 entities in
      let doc = Problem.tokenize_document problem text in
      let whole = triples (all_char_matches problem doc) in
      let rng = Faerie_util.Xorshift.create seed in
      let chunked =
        Chunked.extract_seq ~min_buffer_chars:10 problem
          (List.to_seq (chunk_string rng text))
      in
      triples chunked = whole)

let prop_chunked_equals_whole_gram_token_mode =
  QCheck.Test.make ~count:100 ~name:"chunked == whole (dice over grams)"
    QCheck.(
      make
        ~print:(fun (es, doc, seed) ->
          Printf.sprintf "dict=[%s] doc=%S seed=%d" (String.concat ";" es) doc seed)
        Gen.(
          triple
            (list_size (int_range 1 4) (gen_char_string 3 8))
            (gen_char_string 10 50) (int_bound 1000)))
    (fun (entities, text, seed) ->
      let problem =
        Problem.create ~sim:(Sim.Dice 0.8) ~mode:(Tk.Document.Gram 2) entities
      in
      let doc = Problem.tokenize_document problem text in
      let whole = triples (all_char_matches problem doc) in
      let rng = Faerie_util.Xorshift.create seed in
      let chunked =
        Chunked.extract_seq ~min_buffer_chars:10 problem
          (List.to_seq (chunk_string rng text))
      in
      triples chunked = whole)

let test_of_index_mode_mismatch () =
  let problem = Problem.create ~sim:(Sim.Jaccard 0.8) [ "dong xin" ] in
  check_bool "word index rejected for ed" true
    (try
       ignore (Problem.of_index ~sim:(Sim.Edit_distance 1) (Problem.index problem));
       false
     with Invalid_argument _ -> true)

let test_chunked_interleaved_empty_pieces () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let whole = triples (all_char_matches problem doc) in
  (* Split into characters with empty pieces interleaved. *)
  let pieces =
    String.to_seq paper_doc
    |> Seq.concat_map (fun c -> List.to_seq [ ""; String.make 1 c; "" ])
  in
  let chunked = Chunked.extract_seq ~min_buffer_chars:32 problem pieces in
  Alcotest.(check (list (triple int int int))) "equal" whole (triples chunked)

let test_codec_rejects_future_version () =
  (* Header is magic + varint version; bump the version byte. *)
  let problem = ed_problem () in
  let data = Codec.encode (Problem.dictionary problem) (Problem.index problem) in
  let b = Bytes.of_string data in
  Bytes.set b 8 '\x03';
  check_bool "future version rejected" true
    (try
       ignore (Codec.decode (Bytes.to_string b));
       false
     with Codec.Corrupt _ -> true)

let test_select_beats_greedy_total_weight () =
  (* Classic counterexample: one heavy middle span vs two lighter flanks
     whose sum is larger. Greedy keeps the middle; select keeps the pair. *)
  let middle = mk_span ~score:0.6 2 6 in
  let left = mk_span ~score:0.4 0 4 and right = mk_span ~score:0.4 5 4 in
  let w = Span_select.default_weight in
  let opt = total_weight w (Span_select.select [ left; middle; right ]) in
  let greedy = total_weight w (Span_select.greedy_best [ left; middle; right ]) in
  check_bool "optimal >= greedy" true (opt >= greedy);
  Alcotest.(check (float 1e-9)) "optimal picks the flanks" 0.8 opt;
  Alcotest.(check (float 1e-9)) "greedy keeps the middle" 0.6 greedy

let test_topk_pruning_levels_agree () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let reference = triples (Topk.top_k ~k:4 problem doc) in
  List.iter
    (fun pruning ->
      Alcotest.(check (list (triple int int int)))
        (Types.pruning_name pruning) reference
        (triples (Topk.top_k ~pruning ~k:4 problem doc)))
    Types.all_prunings

(* ------------------------------------------------------------------ *)
(* Parallel extraction                                                 *)
(* ------------------------------------------------------------------ *)

let test_parallel_equals_sequential () =
  let corpus = Faerie_datagen.Corpus.dblp ~seed:4 ~n_entities:200 ~n_documents:12 () in
  let problem =
    Problem.create ~sim:(Sim.Edit_distance 2) ~q:3
      (Array.to_list corpus.Faerie_datagen.Corpus.entities)
  in
  let docs =
    Array.map
      (fun d -> d.Faerie_datagen.Corpus.text)
      corpus.Faerie_datagen.Corpus.documents
  in
  let seq = Parallel.extract_all ~domains:1 problem docs in
  let par = Parallel.extract_all ~domains:4 problem docs in
  check_bool "identical per-document results" true (seq = par)

let test_parallel_empty_docs () =
  let problem = ed_problem () in
  check_int "no docs" 0 (Array.length (Parallel.extract_all problem [||]))

(* ------------------------------------------------------------------ *)
(* Ablation variants agree with the defaults                            *)
(* ------------------------------------------------------------------ *)

let test_mergers_same_matches () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let reference = Single_heap.run problem doc in
  check_bool "paper document matches" true (fst reference <> []);
  List.iter
    (fun merger ->
      check_bool "same matches and stats" true
        (Single_heap.run ~merger problem doc = reference))
    Faerie_heaps.Multiway.[ Binary_heap; Tournament_tree; Scan_count ]

let test_linear_windows_match_binary () =
  let positions = [| 10; 17; 33; 34; 43; 58; 59; 60; 61; 66; 71; 76; 81; 86 |] in
  let collect f =
    let acc = ref [] in
    f ?n:None ~positions ~tl:4 ~upper:10
      ~f:(fun ~first ~last -> acc := (first, last) :: !acc)
      ();
    List.rev !acc
  in
  check_bool "same windows" true
    (collect Windows.iter_windows = collect Windows.iter_windows_linear)

let prop_linear_windows_match_binary =
  QCheck.Test.make ~count:500 ~name:"linear and binary window search agree"
    QCheck.(
      make
        ~print:(fun (ps, tl, upper) ->
          Printf.sprintf "[%s] tl=%d upper=%d"
            (String.concat "," (List.map string_of_int ps))
            tl upper)
        Gen.(
          triple
            (list_size (int_range 1 12) (int_bound 50))
            (int_range 1 5) (int_range 1 12)))
    (fun (ps, tl, upper) ->
      let positions = Array.of_list (List.sort_uniq compare ps) in
      QCheck.assume (Array.length positions >= tl);
      let collect f =
        let acc = ref [] in
        f ?n:None ~positions ~tl ~upper
          ~f:(fun ~first ~last -> acc := (first, last) :: !acc)
          ();
        List.rev !acc
      in
      collect Windows.iter_windows = collect Windows.iter_windows_linear)

let test_multi_heap_algorithms_agree () =
  let problem = ed_problem () in
  let doc = Problem.tokenize_document problem paper_doc in
  let reference, _ = Core.Multi_heap.run problem doc in
  List.iter
    (fun (name, algorithm) ->
      let got, _ = Core.Multi_heap.run ~algorithm problem doc in
      check_bool name true (got = reference))
    [ ("merge_skip", Core.Multi_heap.Merge_skip);
      ("divide_skip", Core.Multi_heap.Divide_skip) ]

let prop_multi_heap_algorithms_agree =
  QCheck.Test.make ~count:100 ~name:"multi-heap skip algorithms == heap count"
    QCheck.(
      make
        ~print:(fun (es, doc) ->
          Printf.sprintf "dict=[%s] doc=%S" (String.concat ";" es) doc)
        Gen.(
          pair (list_size (int_range 1 4) (gen_char_string 2 8)) (gen_char_string 8 25)))
    (fun (entities, text) ->
      let problem = Problem.create ~sim:(Sim.Edit_distance 1) ~q:2 entities in
      let doc = Problem.tokenize_document problem text in
      let reference, _ = Core.Multi_heap.run problem doc in
      List.for_all
        (fun algorithm -> fst (Core.Multi_heap.run ~algorithm problem doc) = reference)
        [ Core.Multi_heap.Merge_skip; Core.Multi_heap.Divide_skip ])

let test_paper_lazy_bound_same_matches () =
  let exact = Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let paper =
    Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 ~lazy_bound:`Paper paper_dict
  in
  let de = Problem.tokenize_document exact paper_doc in
  let dp = Problem.tokenize_document paper paper_doc in
  Alcotest.(check (list (triple int int int)))
    "same matches"
    (triples (all_char_matches exact de))
    (triples (all_char_matches paper dp));
  let _, (se : Types.stats) = Single_heap.candidates ~pruning:Types.Binary_window exact de in
  let _, (sp : Types.stats) = Single_heap.candidates ~pruning:Types.Binary_window paper dp in
  check_bool "paper bound never prunes more" true
    (sp.Types.candidates >= se.Types.candidates)

let prop_paper_lazy_bound_equivalent =
  QCheck.Test.make ~count:150 ~name:"`Paper lazy bound: same matches"
    QCheck.(
      make
        ~print:(fun (es, doc) ->
          Printf.sprintf "dict=[%s] doc=%S" (String.concat ";" es) doc)
        Gen.(
          pair (list_size (int_range 1 4) (gen_char_string 2 8)) (gen_char_string 8 30)))
    (fun (entities, text) ->
      let mk lazy_bound =
        let problem = Problem.create ~sim:(Sim.Edit_similarity 0.8) ~q:2 ~lazy_bound entities in
        let doc = Problem.tokenize_document problem text in
        triples (all_char_matches problem doc)
      in
      mk `Exact = mk `Paper)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_extensions"
    [
      ( "topk",
        [
          Alcotest.test_case "best is exact" `Quick test_topk_best_is_exact_match;
          Alcotest.test_case "sorted and bounded" `Quick test_topk_sorted_and_bounded;
          Alcotest.test_case "equals sorted prefix" `Quick test_topk_equals_sorted_prefix;
          Alcotest.test_case "k edge cases" `Quick test_topk_k_zero_and_larger_than_matches;
          Alcotest.test_case "includes fallback" `Quick test_topk_includes_fallback;
          Alcotest.test_case "pruning levels agree" `Quick test_topk_pruning_levels_agree;
          q prop_topk_is_sorted_prefix;
        ] );
      ( "span_select",
        [
          Alcotest.test_case "simple" `Quick test_select_simple;
          Alcotest.test_case "empty" `Quick test_select_empty;
          Alcotest.test_case "touching kept" `Quick test_select_touching_spans_kept;
          Alcotest.test_case "negative weight" `Quick test_select_negative_weight_rejected;
          Alcotest.test_case "default weight" `Quick test_default_weight;
          Alcotest.test_case "select beats greedy" `Quick test_select_beats_greedy_total_weight;
          q prop_select_optimal;
          q prop_greedy_nonoverlapping;
        ] );
      ( "codec",
        [
          Alcotest.test_case "of_index mode mismatch" `Quick test_of_index_mode_mismatch;
          Alcotest.test_case "roundtrip gram" `Quick test_codec_roundtrip_gram;
          Alcotest.test_case "roundtrip word" `Quick test_codec_roundtrip_word;
          Alcotest.test_case "save/load file" `Quick test_codec_save_load_file;
          Alcotest.test_case "detects corruption" `Quick test_codec_detects_corruption;
          Alcotest.test_case "future version" `Quick test_codec_rejects_future_version;
          Alcotest.test_case "compact" `Quick test_codec_encoding_is_compact;
          Alcotest.test_case "truncated file via load" `Quick
            test_codec_load_truncated_file;
          Alcotest.test_case "v2 block validation" `Quick
            test_codec_v2_block_validation;
        ] );
      ( "chunked",
        [
          Alcotest.test_case "equals whole (paper)" `Quick test_chunked_equals_whole_paper;
          Alcotest.test_case "empty input" `Quick test_chunked_empty_input;
          Alcotest.test_case "with fallback entities" `Quick test_chunked_with_fallback_entities;
          Alcotest.test_case "interleaved empty pieces" `Quick test_chunked_interleaved_empty_pieces;
          q prop_chunked_equals_whole_word;
          q prop_chunked_equals_whole_gram;
          q prop_chunked_equals_whole_gram_token_mode;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "equals sequential" `Quick test_parallel_equals_sequential;
          Alcotest.test_case "empty docs" `Quick test_parallel_empty_docs;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "every merger" `Quick test_mergers_same_matches;
          Alcotest.test_case "linear windows" `Quick test_linear_windows_match_binary;
          Alcotest.test_case "paper lazy bound" `Quick test_paper_lazy_bound_same_matches;
          Alcotest.test_case "multi-heap algorithms" `Quick test_multi_heap_algorithms_agree;
          q prop_linear_windows_match_binary;
          q prop_paper_lazy_bound_equivalent;
          q prop_multi_heap_algorithms_agree;
        ] );
    ]
