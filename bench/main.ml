(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the synthetic corpora, plus a Bechamel micro
   suite for the core operations.

   Usage:
     dune exec bench/main.exe                 # all sections
     dune exec bench/main.exe fig14 fig16     # selected sections
     FAERIE_SCALE=0.2 dune exec bench/main.exe  # scale workloads up/down

   Absolute times are machine- and substrate-dependent; what must match the
   paper is the *shape* of every series (who wins, by what order of
   magnitude, and how it trends with the threshold/dictionary size).
   EXPERIMENTS.md records the comparison. *)

module Sim = Faerie_sim.Sim
module Corpus = Faerie_datagen.Corpus
module Core = Faerie_core
module Types = Core.Types
module Problem = Core.Problem
module Single_heap = Core.Single_heap
module Multi_heap = Core.Multi_heap
module Fallback = Core.Fallback
module Ix = Faerie_index
module Ngpp = Faerie_baselines.Ngpp
module Ish = Faerie_baselines.Ish
module Bytesize = Faerie_util.Bytesize
module W = Workloads
module H = Harness

(* ------------------------------------------------------------------ *)
(* Runners                                                             *)
(* ------------------------------------------------------------------ *)

type run_result = { matches : int; candidates : int; seconds : float }

(* --verifier=ENGINE: edit-distance verification engine for the faerie
   runners (auto | myers | banded); the paper exhibits stay on auto. *)
let verifier_ref = ref Faerie_sim.Verify.Auto

let run_single ?merger ?pruning problem docs =
  let matches = ref 0 and candidates = ref 0 in
  let seconds =
    H.timed (fun () ->
        Array.iter
          (fun text ->
            let doc = Problem.tokenize_document problem text in
            let ms, (st : Types.stats) =
              Single_heap.run ?merger ?pruning ~verifier:!verifier_ref problem
                doc
            in
            let fb = Fallback.run ~verifier:!verifier_ref problem doc in
            matches := !matches + List.length ms + List.length fb;
            candidates := !candidates + st.Types.candidates)
          docs)
  in
  { matches = !matches; candidates = !candidates; seconds }

let run_multi problem docs =
  let matches = ref 0 and candidates = ref 0 in
  let seconds =
    H.timed (fun () ->
        Array.iter
          (fun text ->
            let doc = Problem.tokenize_document problem text in
            let ms, (st : Types.stats) = Multi_heap.run problem doc in
            matches := !matches + List.length ms;
            candidates := !candidates + st.Types.candidates)
          docs)
  in
  { matches = !matches; candidates = !candidates; seconds }

let run_ngpp ngpp docs =
  let matches = ref 0 in
  let seconds =
    H.timed (fun () ->
        Array.iter
          (fun text -> matches := !matches + List.length (Ngpp.extract ngpp text))
          docs)
  in
  { matches = !matches; candidates = 0; seconds }

let run_ish problem docs =
  let ish = Ish.build problem in
  let matches = ref 0 in
  let seconds =
    H.timed (fun () ->
        Array.iter
          (fun text ->
            let doc = Problem.tokenize_document problem text in
            matches := !matches + List.length (Ish.extract ish doc))
          docs)
  in
  { matches = !matches; candidates = Ish.candidates_checked ish; seconds }

(* ------------------------------------------------------------------ *)
(* Table 4: dataset statistics                                          *)
(* ------------------------------------------------------------------ *)

let table4 () =
  H.section ~exhibit:"Table 4" ~title:"dataset statistics (synthetic corpora)";
  let row name corpus =
    let s = Corpus.stats (Lazy.force corpus) in
    [
      [ name ^ " Dict"; string_of_int s.Corpus.n_entities;
        H.fmt_float s.Corpus.avg_entity_chars; H.fmt_float s.Corpus.avg_entity_tokens ];
      [ name ^ " Docs"; string_of_int s.Corpus.n_documents;
        H.fmt_float s.Corpus.avg_document_chars; H.fmt_float s.Corpus.avg_document_tokens ];
    ]
  in
  H.table ~csv:"table4_datasets" ~x_label:"Dataset"
    ~columns:[ "Cardinality"; "avg len"; "avg tokens" ]
    ~rows:(row "DBLP" W.dblp @ row "PubMed" W.pubmed @ row "WebPage" W.webpage)
    ()

(* ------------------------------------------------------------------ *)
(* Fig 13: multi-heap vs single-heap                                    *)
(* ------------------------------------------------------------------ *)

let fig13_panel ~name ~csv ~x_label ~settings ~docs ~mk_problem =
  H.subsection name;
  let rows =
    List.map
      (fun (label, setting) ->
        let problem = mk_problem setting in
        let multi = run_multi problem docs in
        (* The paper's Section 3.3 single heap, not the ScanCount default. *)
        let single =
          run_single ~merger:Faerie_heaps.Multiway.Binary_heap
            ~pruning:Types.No_prune problem docs
        in
        [ label; H.fmt_time multi.seconds; H.fmt_time single.seconds;
          string_of_int single.matches ])
      settings
  in
  H.table ~csv ~x_label ~columns:[ "Multi-Heap"; "Single-Heap"; "matches" ] ~rows ()

let fig13 () =
  H.section ~exhibit:"Fig 13" ~title:"multi-heap vs single-heap (no pruning)";
  let dblp = Lazy.force W.dblp in
  fig13_panel ~name:"(a) ed on DBLP" ~csv:"fig13a_ed_dblp" ~x_label:"tau"
    ~settings:(List.map (fun t -> (string_of_int t, t)) [ 0; 1; 2; 3 ])
    ~docs:(W.doc_texts dblp 2)
    ~mk_problem:(fun tau ->
      let q = W.q_for_ed_dblp tau in
      let sim = Sim.Edit_distance tau in
      Problem.create ~sim ~q (W.indexed_subset ~sim ~q (W.entities dblp)));
  let webpage = Lazy.force W.webpage in
  fig13_panel ~name:"(b) jac on WebPage" ~csv:"fig13b_jac_webpage" ~x_label:"delta"
    ~settings:(List.map (fun d -> (string_of_float d, d)) [ 1.0; 0.95; 0.9; 0.85 ])
    ~docs:(W.doc_texts webpage 1)
    ~mk_problem:(fun d -> Problem.create ~sim:(Sim.Jaccard d) (W.entities webpage));
  let pubmed = Lazy.force W.pubmed in
  fig13_panel ~name:"(c) eds on PubMed" ~csv:"fig13c_eds_pubmed" ~x_label:"delta"
    ~settings:(List.map (fun d -> (string_of_float d, d)) [ 1.0; 0.95; 0.9; 0.85 ])
    ~docs:(W.doc_texts ~from:1 pubmed 1)
    ~mk_problem:(fun d ->
      let q = W.q_for_eds_pubmed d in
      let sim = Sim.Edit_similarity d in
      Problem.create ~sim ~q (W.indexed_subset ~sim ~q (W.entities pubmed)))

(* ------------------------------------------------------------------ *)
(* Fig 14 + Fig 15: pruning techniques (candidates, then time)          *)
(* ------------------------------------------------------------------ *)

let fig14_15_panel ~name ~csv ~x_label ~settings ~docs ~mk_problem =
  H.subsection name;
  let results =
    List.map
      (fun (label, setting) ->
        let problem = mk_problem setting in
        ( label,
          List.map (fun p -> run_single ~pruning:p problem docs) Types.all_prunings ))
      settings
  in
  print_endline "candidates (Fig 14):";
  H.table ~csv:("fig14" ^ csv) ~x_label ~columns:[ "None"; "Lazy"; "Bucket"; "Binary" ]
    ~rows:
      (List.map
         (fun (label, rs) -> label :: List.map (fun r -> H.fmt_count r.candidates) rs)
         results)
    ();
  print_endline "elapsed time (Fig 15):";
  H.table ~csv:("fig15" ^ csv) ~x_label ~columns:[ "None"; "Lazy"; "Bucket"; "Binary" ]
    ~rows:
      (List.map
         (fun (label, rs) -> label :: List.map (fun r -> H.fmt_time r.seconds) rs)
         results)
    ()

let fig14_15 () =
  H.section ~exhibit:"Fig 14 + Fig 15"
    ~title:"pruning techniques: candidates and elapsed time";
  let dblp = Lazy.force W.dblp in
  fig14_15_panel ~name:"(a) ed on DBLP" ~csv:"a_ed_dblp" ~x_label:"tau"
    ~settings:(List.map (fun t -> (string_of_int t, t)) [ 0; 1; 2; 3 ])
    ~docs:(W.doc_texts dblp 50)
    ~mk_problem:(fun tau ->
      let q = W.q_for_ed_dblp tau in
      let sim = Sim.Edit_distance tau in
      Problem.create ~sim ~q (W.indexed_subset ~sim ~q (W.entities dblp)));
  let webpage = Lazy.force W.webpage in
  fig14_15_panel ~name:"(b) jac on WebPage" ~csv:"b_jac_webpage" ~x_label:"delta"
    ~settings:(List.map (fun d -> (string_of_float d, d)) [ 1.0; 0.95; 0.9; 0.85 ])
    ~docs:(W.doc_texts webpage 3)
    ~mk_problem:(fun d -> Problem.create ~sim:(Sim.Jaccard d) (W.entities webpage));
  let pubmed = Lazy.force W.pubmed in
  fig14_15_panel ~name:"(c) eds on PubMed" ~csv:"c_eds_pubmed" ~x_label:"delta"
    ~settings:(List.map (fun d -> (string_of_float d, d)) [ 1.0; 0.95; 0.9; 0.85 ])
    ~docs:(W.doc_texts pubmed 10)
    ~mk_problem:(fun d ->
      let q = W.q_for_eds_pubmed d in
      let sim = Sim.Edit_similarity d in
      Problem.create ~sim ~q (W.indexed_subset ~sim ~q (W.entities pubmed)))

(* ------------------------------------------------------------------ *)
(* Fig 16: comparison with NGPP and ISH                                 *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  H.section ~exhibit:"Fig 16" ~title:"Faerie vs state-of-the-art (NGPP, ISH)";
  let dblp = Lazy.force W.dblp in
  H.subsection "(a) ed on DBLP: NGPP vs Faerie";
  let docs = W.doc_texts dblp 50 in
  H.table ~csv:"fig16a_ngpp_dblp" ~x_label:"tau" ~columns:[ "NGPP"; "Faerie"; "matches" ]
    ~rows:
      (List.map
         (fun tau ->
           let q = W.q_for_ed_dblp tau in
           let sim = Sim.Edit_distance tau in
           let ents = W.indexed_subset ~sim ~q (W.entities dblp) in
           let problem = Problem.create ~sim ~q ents in
           let ngpp = Ngpp.build ~tau ents in
           let n = run_ngpp ngpp docs in
           let f = run_single problem docs in
           [ string_of_int tau; H.fmt_time n.seconds; H.fmt_time f.seconds;
             string_of_int f.matches ])
         [ 0; 1; 2; 3; 4 ])
    ();
  let webpage = Lazy.force W.webpage in
  H.subsection "(b) jac on WebPage: ISH vs Faerie";
  let docs = W.doc_texts webpage 3 in
  H.table ~csv:"fig16b_ish_webpage" ~x_label:"delta" ~columns:[ "ISH"; "Faerie"; "matches" ]
    ~rows:
      (List.map
         (fun d ->
           let problem = Problem.create ~sim:(Sim.Jaccard d) (W.entities webpage) in
           let i = run_ish problem docs in
           let f = run_single problem docs in
           [ string_of_float d; H.fmt_time i.seconds; H.fmt_time f.seconds;
             string_of_int f.matches ])
         [ 1.0; 0.95; 0.9; 0.85; 0.8 ])
    ();
  let pubmed = Lazy.force W.pubmed in
  H.subsection "(c) eds on PubMed: ISH vs Faerie";
  (* One document, and delta stops at 0.85: ISH is already ~2 orders of
     magnitude slower there (the paper's Fig 16c shows the same gap, with
     ISH at ~1000s by delta = 0.9 on its testbed). *)
  let docs = W.doc_texts ~from:1 pubmed 1 in
  H.table ~csv:"fig16c_ish_pubmed" ~x_label:"delta" ~columns:[ "ISH"; "Faerie"; "matches" ]
    ~rows:
      (List.map
         (fun d ->
           let q = W.q_for_eds_pubmed d in
           let sim = Sim.Edit_similarity d in
           let ents = W.indexed_subset ~sim ~q (W.entities pubmed) in
           let problem = Problem.create ~sim ~q ents in
           let i = run_ish problem docs in
           let f = run_single problem docs in
           [ string_of_float d; H.fmt_time i.seconds; H.fmt_time f.seconds;
             string_of_int f.matches ])
         [ 1.0; 0.95; 0.9; 0.85 ])
    ()

(* ------------------------------------------------------------------ *)
(* Index sizes (Section 6.3 text)                                       *)
(* ------------------------------------------------------------------ *)

let index_sizes () =
  H.section ~exhibit:"Section 6.3" ~title:"index sizes: Faerie vs NGPP vs ISH";
  let dblp = Lazy.force W.dblp in
  let ents = W.entities dblp in
  H.subsection "DBLP, edit distance tau = 3";
  let ngpp = Ngpp.build ~tau:3 ents in
  Printf.printf "NGPP (tau=3):            %s  (%d neighborhood entries)\n"
    (Bytesize.to_string (Ngpp.index_bytes ngpp))
    (Ngpp.n_neighborhood_entries ngpp);
  List.iter
    (fun q ->
      let problem = Problem.create ~sim:(Sim.Edit_distance 3) ~q ents in
      Printf.printf "Faerie inverted index (q=%d): %s\n" q
        (Bytesize.to_string (Ix.Inverted_index.heap_bytes (Problem.index problem))))
    [ 2; 4; 5 ];
  let webpage = Lazy.force W.webpage in
  H.subsection "WebPage, jaccard delta = 0.9";
  let problem = Problem.create ~sim:(Sim.Jaccard 0.9) (W.entities webpage) in
  let ish = Ish.build problem in
  Printf.printf "ISH signature lists:     %s\n" (Bytesize.to_string (Ish.index_bytes ish));
  Printf.printf "Faerie inverted index:   %s\n%!"
    (Bytesize.to_string (Ix.Inverted_index.heap_bytes (Problem.index problem)))

(* ------------------------------------------------------------------ *)
(* Fig 17: scalability with dictionary size                             *)
(* ------------------------------------------------------------------ *)

let fractions = [ 0.2; 0.4; 0.6; 0.8; 1.0 ]

let fig17_panel ~name ~csv ~series ~docs ~mk_problem ~all_entities =
  H.subsection name;
  H.table ~csv ~x_label:"entities"
    ~columns:(List.map fst series)
    ~rows:
      (List.map
         (fun frac ->
           let ents = W.take_fraction frac all_entities in
           string_of_int (List.length ents)
           :: List.map
                (fun (_, setting) ->
                  let problem = mk_problem setting ents in
                  H.fmt_time (run_single problem docs).seconds)
                series)
         fractions)
    ()

let fig17 () =
  H.section ~exhibit:"Fig 17" ~title:"scalability with dictionary size";
  let dblp = Lazy.force W.dblp in
  fig17_panel ~name:"(a) ed on DBLP" ~csv:"fig17a_ed_dblp"
    ~series:(List.map (fun t -> ("tau=" ^ string_of_int t, t)) [ 0; 1; 2; 3 ])
    ~docs:(W.doc_texts dblp 40) ~all_entities:(W.entities dblp)
    ~mk_problem:(fun tau ents ->
      let q = W.q_for_ed_dblp tau in
      let sim = Sim.Edit_distance tau in
      Problem.create ~sim ~q (W.indexed_subset ~sim ~q ents));
  let webpage = Lazy.force W.webpage in
  let deltas = [ 0.85; 0.9; 0.95; 1.0 ] in
  fig17_panel ~name:"(b) jac on WebPage" ~csv:"fig17b_jac_webpage"
    ~series:(List.map (fun d -> ("d=" ^ string_of_float d, d)) deltas)
    ~docs:(W.doc_texts webpage 2) ~all_entities:(W.entities webpage)
    ~mk_problem:(fun d ents -> Problem.create ~sim:(Sim.Jaccard d) ents);
  let pubmed = Lazy.force W.pubmed in
  let pubmed_docs = W.doc_texts pubmed 10 in
  fig17_panel ~name:"(c) eds on PubMed" ~csv:"fig17c_eds_pubmed"
    ~series:(List.map (fun d -> ("d=" ^ string_of_float d, d)) deltas)
    ~docs:pubmed_docs ~all_entities:(W.entities pubmed)
    ~mk_problem:(fun d ents ->
      let q = W.q_for_eds_pubmed d in
      let sim = Sim.Edit_similarity d in
      Problem.create ~sim ~q (W.indexed_subset ~sim ~q ents));
  (* The paper runs dice and cosine on PubMed over q-grams. *)
  fig17_panel ~name:"(d) dice on PubMed (4-grams)" ~csv:"fig17d_dice_pubmed"
    ~series:(List.map (fun d -> ("d=" ^ string_of_float d, d)) deltas)
    ~docs:pubmed_docs ~all_entities:(W.entities pubmed)
    ~mk_problem:(fun d ents ->
      Problem.create ~sim:(Sim.Dice d) ~mode:(Faerie_tokenize.Document.Gram 4) ents);
  fig17_panel ~name:"(e) cos on PubMed (4-grams)" ~csv:"fig17e_cos_pubmed"
    ~series:(List.map (fun d -> ("d=" ^ string_of_float d, d)) deltas)
    ~docs:pubmed_docs ~all_entities:(W.entities pubmed)
    ~mk_problem:(fun d ents ->
      Problem.create ~sim:(Sim.Cosine d) ~mode:(Faerie_tokenize.Document.Gram 4) ents)

(* ------------------------------------------------------------------ *)
(* Table 5: index size scaling                                          *)
(* ------------------------------------------------------------------ *)

(* The paper's "Heap+Array" row: the single heap holds one cursor per
   document token plus the reusable position buffer — independent of the
   dictionary size. *)
let heap_array_bytes problem text =
  let doc = Problem.tokenize_document problem text in
  let tokens = Faerie_tokenize.Document.tokens doc in
  let n = Array.length tokens in
  let index = Problem.index problem in
  let live, _ =
    Faerie_heaps.Multiway.heap_stats ~n_positions:n
      ~length_at:(fun pos ->
        Ix.Inverted_index.Postings.length
          (Ix.Inverted_index.postings index tokens.(pos)))
  in
  (* heap slots + cursor records (4 words each) + position buffer *)
  Bytesize.bytes_of_words ((live * 5) + n)

let table5 () =
  H.section ~exhibit:"Table 5" ~title:"index size scaling with dictionary size";
  let panel ~name ~csv ~corpus ~mk_problem =
    H.subsection name;
    let corpus = Lazy.force corpus in
    let all = W.entities corpus in
    let doc0 = corpus.Corpus.documents.(0).Corpus.text in
    H.table ~csv ~x_label:"entities"
      ~columns:[ "InvertedIndex"; "Heap+Array" ]
      ~rows:
        (List.map
           (fun frac ->
             let ents = W.take_fraction frac all in
             let problem = mk_problem ents in
             [ string_of_int (List.length ents);
               Bytesize.to_string
                 (Ix.Inverted_index.heap_bytes (Problem.index problem));
               Bytesize.to_string (heap_array_bytes problem doc0) ])
           fractions)
      ()
  in
  panel ~name:"(a) DBLP (ed, q=5)" ~csv:"table5a_dblp" ~corpus:W.dblp
    ~mk_problem:(fun ents -> Problem.create ~sim:(Sim.Edit_distance 0) ~q:5 ents);
  panel ~name:"(b) WebPage (jac, word tokens)" ~csv:"table5b_webpage" ~corpus:W.webpage
    ~mk_problem:(fun ents -> Problem.create ~sim:(Sim.Jaccard 0.9) ents);
  panel ~name:"(c) PubMed (eds, q=7)" ~csv:"table5c_pubmed" ~corpus:W.pubmed
    ~mk_problem:(fun ents -> Problem.create ~sim:(Sim.Edit_similarity 0.9) ~q:7 ents)

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out                        *)
(* ------------------------------------------------------------------ *)

let ablations () =
  H.section ~exhibit:"ablations"
    ~title:
      "design-choice ablations (merge engine, window search, lazy bound, \
       fallback search)";
  let dblp = Lazy.force W.dblp in
  let docs = W.doc_texts dblp 50 in
  let q = W.q_for_ed_dblp 2 in
  let sim = Sim.Edit_distance 2 in
  let problem = Problem.create ~sim ~q (W.indexed_subset ~sim ~q (W.entities dblp)) in

  H.subsection "merge engine: binary int-heap vs loser (tournament) tree vs ScanCount";
  let engine_row label problem docs =
    let run_with merger =
      H.timed (fun () ->
          Array.iter
            (fun text ->
              let doc = Problem.tokenize_document problem text in
              ignore (Single_heap.run ~merger problem doc))
            docs)
    in
    label
    :: List.map
         (fun m -> H.fmt_time (run_with m))
         Faerie_heaps.Multiway.[ Binary_heap; Tournament_tree; Scan_count ]
  in
  let webpage = Lazy.force W.webpage in
  H.table ~csv:"ablation_merge_engine" ~x_label:"workload"
    ~columns:[ "Int_heap"; "Loser_tree"; "ScanCount" ]
    ~rows:
      [
        engine_row "ed dblp tau=2" problem docs;
        engine_row "jac webpage delta=0.9"
          (Problem.create ~sim:(Sim.Jaccard 0.9) (W.entities webpage))
          (W.doc_texts webpage 3);
      ]
    ();

  H.subsection "window search: binary span/shift vs linear span/shift";
  (* Collect every (position list, Tl, upper) an extraction visits, then
     time the two searches over the collection. Short lists favour the
     linear scan; the binary variant pays off on long position lists (the
     webpage workload, where common title tokens occur all over a page). *)
  let collect_cases problem docs =
    let cases = ref [] in
    let index = Problem.index problem in
    let ws = Ix.Inverted_index.Workspace.create () in
    Array.iter
      (fun text ->
        let doc = Problem.tokenize_document problem text in
        let buf, offs, lens = Ix.Inverted_index.decode_document index ws doc in
        Faerie_heaps.Multiway.iter_entity_positions
          ~n_positions:(Faerie_tokenize.Document.n_tokens doc)
          ~buf ~offs ~lens
          ~f:(fun ~entity ~positions ~n ->
            let info = Problem.info problem entity in
            if info.Problem.path = Problem.Indexed && n >= info.Problem.tl then
              cases :=
                (Array.sub positions 0 n, info.Problem.tl, info.Problem.upper)
                :: !cases)
          ())
      docs;
    Array.of_list !cases
  in
  let webpage = Lazy.force W.webpage in
  let wproblem = Problem.create ~sim:(Sim.Jaccard 0.85) (W.entities webpage) in
  let workloads =
    [ ("ed dblp tau=2", collect_cases problem docs);
      ("jac webpage d=.85", collect_cases wproblem (W.doc_texts webpage 3)) ]
  in
  let time_search search cases =
    H.timed (fun () ->
        for _ = 1 to 20 do
          Array.iter
            (fun (positions, tl, upper) ->
              search ~positions ~tl ~upper ~f:(fun ~first:_ ~last:_ -> ()))
            cases
        done)
  in
  H.table ~csv:"ablation_window_search" ~x_label:"workload"
    ~columns:[ "lists"; "avg len"; "binary"; "linear" ]
    ~rows:
      (List.map
         (fun (label, cases) ->
           let total =
             Array.fold_left (fun acc (p, _, _) -> acc + Array.length p) 0 cases
           in
           [ label; string_of_int (Array.length cases);
             H.fmt_float (float_of_int total /. float_of_int (max 1 (Array.length cases)));
             H.fmt_time
               (time_search
                  (fun ~positions ~tl ~upper ~f ->
                    Core.Windows.iter_windows ~positions ~tl ~upper ~f ())
                  cases);
             H.fmt_time
               (time_search
                  (fun ~positions ~tl ~upper ~f ->
                    Core.Windows.iter_windows_linear ~positions ~tl ~upper ~f ())
                  cases) ])
         workloads)
    ();

  H.subsection "multi-heap inner merge: heap count vs MergeSkip vs DivideSkip";
  let mh_docs = W.doc_texts dblp 2 in
  H.table ~csv:"ablation_tmerge" ~x_label:"algorithm" ~columns:[ "time"; "candidates" ]
    ~rows:
      (List.map
         (fun (label, algorithm) ->
           let matches = ref 0 and cands = ref 0 in
           let dt =
             H.timed (fun () ->
                 Array.iter
                   (fun text ->
                     let doc = Problem.tokenize_document problem text in
                     let ms, (st : Types.stats) =
                       Multi_heap.run ~algorithm problem doc
                     in
                     matches := !matches + List.length ms;
                     cands := !cands + st.Types.candidates)
                   mh_docs)
           in
           [ label; H.fmt_time dt; H.fmt_count !cands ])
         [ ("heap count", Multi_heap.Heap_count);
           ("MergeSkip", Multi_heap.Merge_skip);
           ("DivideSkip", Multi_heap.Divide_skip) ])
    ();

  H.subsection "lazy-count bound: exact minimum vs paper closed form";
  let pubmed = Lazy.force W.pubmed in
  let pdocs = W.doc_texts pubmed 5 in
  let d = 0.85 in
  let qp = W.q_for_eds_pubmed d in
  let simp = Sim.Edit_similarity d in
  let ents = W.indexed_subset ~sim:simp ~q:qp (W.entities pubmed) in
  H.table ~csv:"ablation_lazy_bound" ~x_label:"Tl bound"
    ~columns:[ "candidates"; "time"; "matches" ]
    ~rows:
      (List.map
         (fun (label, lazy_bound) ->
           let problem = Problem.create ~sim:simp ~q:qp ~lazy_bound ents in
           let r = run_single problem pdocs in
           [ label; H.fmt_count r.candidates; H.fmt_time r.seconds;
             string_of_int r.matches ])
         [ ("exact min", `Exact); ("paper form", `Paper) ])
    ();

  H.subsection "fallback path: Myers search pass vs exhaustive verification";
  (* The dblp dictionary with k names cut short, as perfbench pins its
     fallback entities: a 10-character name at tau=2, q=4 has 7 grams and
     Tl <= 0, so exactly those k take the fallback path. A 3-character
     name at tau=2 hits at every end whose last character occurs in it,
     so there the search pass prunes far less. *)
  let long = W.indexed_subset ~sim ~q (W.entities dblp) in
  let with_short ~k ~chars =
    let cuts, rest =
      List.partition
        (fun e -> String.length (String.trim (String.sub e 0 chars)) = chars)
        long
    in
    let short =
      List.filteri (fun i _ -> i < k) cuts |> List.map (fun e -> String.sub e 0 chars)
    in
    short @ List.filteri (fun i _ -> i >= k) cuts @ rest
  in
  let fdocs = W.doc_texts dblp 20 in
  let verify_scores () =
    Faerie_obs.Metrics.counter_value (Faerie_obs.Metrics.snapshot ())
      "verify_scores"
  in
  let per_doc x = x /. float_of_int (Array.length fdocs) in
  let time_fallback extract problem docs =
    let scores0 = verify_scores () in
    let matches = ref 0 in
    let seconds =
      H.timed (fun () ->
          Array.iter
            (fun doc -> matches := !matches + List.length (extract problem doc))
            docs)
    in
    (seconds, verify_scores () - scores0, !matches)
  in
  H.table ~csv:"ablation_fallback" ~x_label:"short names"
    ~columns:
      [ "fallback"; "exhaustive ms/doc"; "exhaustive calls/doc";
        "search ms/doc"; "search calls/doc"; "matches" ]
    ~rows:
      (List.map
         (fun (k, chars) ->
           let problem = Problem.create ~sim ~q (with_short ~k ~chars) in
           let docs = Array.map (Problem.tokenize_document problem) fdocs in
           let ex_s, ex_calls, ex_matches =
             time_fallback (fun p d -> Fallback.exhaustive p d) problem docs
           in
           let s_s, s_calls, s_matches =
             time_fallback (fun p d -> Fallback.run p d) problem docs
           in
           if s_matches <> ex_matches then
             failwith "ablation_fallback: search and exhaustive disagree";
           [ Printf.sprintf "%d x %d chars" k chars;
             string_of_int (List.length (Problem.fallback_entities problem));
             Printf.sprintf "%.3f" (per_doc (ex_s *. 1e3));
             H.fmt_float (per_doc (float_of_int ex_calls));
             Printf.sprintf "%.3f" (per_doc (s_s *. 1e3));
             H.fmt_float (per_doc (float_of_int s_calls));
             string_of_int s_matches ])
         [ (3, 10); (30, 10); (300, 10); (30, 3) ])
    ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro suite                                                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  H.section ~exhibit:"micro" ~title:"Bechamel micro-benchmarks of core operations";
  let open Bechamel in
  let open Toolkit in
  let dblp = Lazy.force W.dblp in
  let entities = W.take_fraction 0.2 (W.entities dblp) in
  let doc_text = dblp.Corpus.documents.(0).Corpus.text in
  let ed_problem = Problem.create ~sim:(Sim.Edit_distance 2) ~q:3 entities in
  let jac_problem = Problem.create ~sim:(Sim.Jaccard 0.8) entities in
  let interner = Faerie_tokenize.Interner.create () in
  ignore (Faerie_tokenize.Tokenizer.qgrams_intern interner ~q:3 doc_text);
  let positions = Array.init 200 (fun i -> i * 3) in
  let tests =
    Test.make_grouped ~name:"faerie"
      [
        Test.make ~name:"min_heap/push_pop_1k"
          (Staged.stage (fun () ->
               let h = Faerie_heaps.Min_heap.create ~cmp:compare () in
               for i = 0 to 999 do
                 Faerie_heaps.Min_heap.push h ((i * 7919) mod 1000)
               done;
               while not (Faerie_heaps.Min_heap.is_empty h) do
                 ignore (Faerie_heaps.Min_heap.pop_exn h)
               done));
        Test.make ~name:"tokenize/qgrams_doc"
          (Staged.stage (fun () ->
               ignore (Faerie_tokenize.Tokenizer.qgrams_lookup interner ~q:3 doc_text)));
        Test.make ~name:"tokenize/words_doc"
          (Staged.stage (fun () ->
               ignore (Faerie_tokenize.Tokenizer.word_offsets doc_text)));
        Test.make ~name:"edit_distance/banded_tau2"
          (Staged.stage (fun () ->
               ignore
                 (Faerie_sim.Edit_distance.distance_upto_banded ~cap:2
                    "approximate membership" "aproximate membershp")));
        Test.make ~name:"edit_distance/myers_tau2"
          (Staged.stage (fun () ->
               ignore
                 (Faerie_sim.Edit_distance.distance_upto_myers ~cap:2
                    "approximate membership" "aproximate membershp")));
        Test.make ~name:"windows/binary_span_shift"
          (Staged.stage (fun () ->
               Core.Windows.iter_windows ~positions ~tl:4 ~upper:12
                 ~f:(fun ~first:_ ~last:_ -> ()) ()));
        Test.make ~name:"extract/ed_one_doc"
          (Staged.stage (fun () ->
               let doc = Problem.tokenize_document ed_problem doc_text in
               ignore (Single_heap.run ed_problem doc)));
        Test.make ~name:"extract/jac_one_doc"
          (Staged.stage (fun () ->
               let doc = Problem.tokenize_document jac_problem doc_text in
               ignore (Single_heap.run jac_problem doc)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] in
      List.iter
        (fun (name, v) ->
          match Analyze.OLS.estimates v with
          | Some [ est ] ->
              if est > 1e6 then Printf.printf "%-40s %10.3f ms/run\n" name (est /. 1e6)
              else Printf.printf "%-40s %10.0f ns/run\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        (List.sort compare rows))
    merged;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Smoke workload (fixed size, CI regression gate)                      *)
(* ------------------------------------------------------------------ *)

(* Deliberately independent of FAERIE_SCALE: the CI gate compares its
   wall time against a checked-in baseline, so the workload must be the
   same on every run. Uses Extractor.run so the doc_wall_ns histogram
   (and hence the snapshot's latency percentiles) is populated. *)
let smoke () =
  H.section ~exhibit:"smoke" ~title:"fixed-size smoke workload (CI gate)";
  let corpus = Corpus.dblp ~seed:7 ~n_entities:400 ~n_documents:30 () in
  let sim = Sim.Edit_distance 2 in
  let q = 4 in
  let ents =
    W.indexed_subset ~sim ~q (Array.to_list corpus.Corpus.entities)
  in
  let extractor = Core.Extractor.of_problem (Problem.create ~sim ~q ents) in
  let matches = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i (d : Corpus.document) ->
      let opts =
        { Core.Extractor.default_opts with doc_id = i; verifier = !verifier_ref }
      in
      let report = Core.Extractor.run ~opts extractor (`Text d.Corpus.text) in
      match report.Core.Extractor.outcome with
      | Core.Outcome.Ok rs | Core.Outcome.Degraded (rs, _) ->
          matches := !matches + List.length rs
      | Core.Outcome.Failed _ -> incr failed)
    corpus.Corpus.documents;
  Printf.printf "smoke: %d matches, %d failures over %d documents\n%!" !matches
    !failed
    (Array.length corpus.Corpus.documents)

(* Like smoke, but an order of magnitude more text (>= 50k document
   tokens): big enough that steady-state throughput and allocation rates
   dominate any per-section warmup, so the tokens_per_s /
   gc.words_per_token gate in CI measures the hot path. *)
let large () =
  H.section ~exhibit:"large"
    ~title:"fixed-size large workload (throughput/allocation gate)";
  let corpus = Corpus.dblp ~seed:11 ~n_entities:800 ~n_documents:600 () in
  let sim = Sim.Edit_distance 2 in
  let q = 4 in
  let ents = W.indexed_subset ~sim ~q (Array.to_list corpus.Corpus.entities) in
  let extractor = Core.Extractor.of_problem (Problem.create ~sim ~q ents) in
  let matches = ref 0 and failed = ref 0 and tokens = ref 0 in
  Array.iteri
    (fun i (d : Corpus.document) ->
      let opts =
        { Core.Extractor.default_opts with doc_id = i; verifier = !verifier_ref }
      in
      let doc = Core.Extractor.tokenize extractor d.Corpus.text in
      tokens := !tokens + Faerie_tokenize.Document.n_tokens doc;
      let report = Core.Extractor.run ~opts extractor (`Doc doc) in
      match report.Core.Extractor.outcome with
      | Core.Outcome.Ok rs | Core.Outcome.Degraded (rs, _) ->
          matches := !matches + List.length rs
      | Core.Outcome.Failed _ -> incr failed)
    corpus.Corpus.documents;
  Printf.printf "large: %d matches, %d failures over %d documents, %d tokens\n%!"
    !matches !failed
    (Array.length corpus.Corpus.documents)
    !tokens

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table4", table4); ("fig13", fig13); ("fig14", fig14_15);
    ("fig15", fig14_15); ("fig16", fig16); ("index_sizes", index_sizes);
    ("fig17", fig17); ("table5", table5); ("ablations", ablations);
    ("micro", micro); ("smoke", smoke); ("large", large);
  ]

let default_order =
  [ "table4"; "fig13"; "fig14"; "fig16"; "index_sizes"; "fig17"; "table5";
    "ablations"; "micro" ]

module Perf = Faerie_obs.Perf

let run_section name f =
  let dt = H.timed f in
  Printf.printf "\n[section %s finished in %s]\n%!" name (H.fmt_time dt);
  dt

let () =
  (* GC/allocation telemetry rides along for every section: exhibits that
     route through Extractor.run (smoke) get per-doc gc blocks in the
     --json snapshot; Prof's overhead is two Gc.quick_stat calls per
     instrumented stage, noise at bench granularity. *)
  Faerie_obs.Prof.enable ();
  Printf.printf "Faerie benchmark harness (FAERIE_SCALE=%g, %d entities)\n"
    W.scale W.n_entities;
  (* --json[=FILE]: after the selected sections, write one machine-readable
     faerie-bench-v2 snapshot (per-exhibit wall time, throughput, pipeline
     counters, latency/allocation percentiles, gc telemetry). Counters are
     attributed per section by resetting the registry before each one. *)
  let json_out = ref None in
  let names =
    List.filter
      (fun a ->
        if a = "--json" then begin
          json_out := Some "BENCH_faerie.json";
          false
        end
        else if String.length a > 7 && String.sub a 0 7 = "--json=" then begin
          json_out := Some (String.sub a 7 (String.length a - 7));
          false
        end
        else if String.length a > 11 && String.sub a 0 11 = "--verifier=" then begin
          let name = String.sub a 11 (String.length a - 11) in
          (match Faerie_sim.Verify.verifier_of_string name with
          | Some v -> verifier_ref := v
          | None ->
              Printf.eprintf "unknown verifier %S (auto | myers | banded)\n"
                name);
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested = match names with [] -> default_order | names -> names in
  let exhibits = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          if !json_out = None then ignore (run_section name f)
          else begin
            Faerie_obs.Metrics.reset ();
            let dt = run_section name f in
            let snap = Faerie_obs.Metrics.snapshot () in
            exhibits :=
              Perf.exhibit_of_snapshot ~name ~wall_s:dt snap :: !exhibits
          end
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections)))
    requested;
  match !json_out with
  | None -> ()
  | Some path ->
      let bench =
        {
          Perf.schema = Perf.schema_version;
          git_rev = H.git_rev ();
          scale = W.scale;
          ocaml = Sys.ocaml_version;
          exhibits = List.rev !exhibits;
        }
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Perf.bench_to_json bench));
      Printf.printf "\nwrote %s (%d exhibits)\n%!" path
        (List.length bench.Perf.exhibits)
