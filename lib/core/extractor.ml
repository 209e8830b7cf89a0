module Tk = Faerie_tokenize
module S = Faerie_sim
module Ix = Faerie_index
module Heaps = Faerie_heaps
module Fault = Faerie_util.Fault
module Budget = Faerie_util.Budget
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Prof = Faerie_obs.Prof
module Explain = Faerie_obs.Explain
module Slowlog = Faerie_obs.Slowlog
open Types

type t = { problem : Problem.t }

type result = {
  entity_id : int;
  entity : string;
  start_char : int;
  len_chars : int;
  matched_text : string;
  score : S.Verify.Score.t;
}

let g_dict_entities =
  Metrics.gauge ~help:"entities in the most recently built dictionary"
    "dict_entities"

let g_index_postings =
  Metrics.gauge ~help:"total postings in the most recently built index"
    "index_postings"

let m_docs = Metrics.counter ~help:"documents processed by Extractor.run" "docs_processed"

let m_docs_ok = Metrics.counter ~help:"documents with a full result set" "docs_ok"

let m_docs_degraded =
  Metrics.counter ~help:"documents with a degraded (partial/chunked) result"
    "docs_degraded"

let m_docs_failed =
  Metrics.counter ~help:"documents that failed outright" "docs_failed"

let m_doc_wall =
  Metrics.histogram ~help:"per-document wall time (ns) in Extractor.run"
    ~buckets:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 |] "doc_wall_ns"

let note_index problem =
  let index = Problem.index problem in
  let dict = Ix.Inverted_index.dictionary index in
  Metrics.set g_dict_entities
    (float_of_int (Array.length (Ix.Dictionary.entities dict)));
  Metrics.set g_index_postings
    (float_of_int (Ix.Inverted_index.n_postings index))

let create ~sim ?q ?mode entities =
  let problem = Problem.create ~sim ?q ?mode entities in
  note_index problem;
  { problem }

let of_problem problem =
  note_index problem;
  { problem }

let problem t = t.problem

let tokenize t raw = Problem.tokenize_document t.problem raw

let to_result t doc (cm : char_match) =
  let e = Ix.Dictionary.entity (Problem.dictionary t.problem) cm.c_entity in
  let text = Tk.Document.text doc in
  {
    entity_id = cm.c_entity;
    entity = e.Ix.Entity.raw;
    start_char = cm.c_start;
    len_chars = cm.c_len;
    matched_text = String.sub text cm.c_start cm.c_len;
    score = cm.c_score;
  }

let char_match_of_token_match doc (m : token_match) =
  let c_start, c_len =
    Tk.Document.char_extent doc ~start:m.m_start ~len:m.m_len
  in
  { c_entity = m.m_entity; c_start; c_len; c_score = m.m_score }

let sort_results rs =
  List.sort
    (fun a b ->
      let c = compare a.start_char b.start_char in
      if c <> 0 then c
      else
        let c = compare a.len_chars b.len_chars in
        if c <> 0 then c else compare a.entity_id b.entity_id)
    rs

let results_of_char_matches t doc ms = sort_results (List.map (to_result t doc) ms)

(* Render char matches against the raw (untokenized) text — the chunked
   path never holds a whole-document [Document.t]. Normalization is
   length-preserving, so match offsets index straight into it. *)
let results_of_text t text ms =
  let dict = Problem.dictionary t.problem in
  let text = Tk.Tokenizer.normalize text in
  sort_results
    (List.map
       (fun (cm : char_match) ->
         let e = Ix.Dictionary.entity dict cm.c_entity in
         {
           entity_id = cm.c_entity;
           entity = e.Ix.Entity.raw;
           start_char = cm.c_start;
           len_chars = cm.c_len;
           matched_text = String.sub text cm.c_start cm.c_len;
           score = cm.c_score;
         })
       ms)

(* ---- the unified entry point ---- *)

type opts = {
  pruning : Types.pruning;
  budget : Budget.spec;
  oversize : [ `Chunk | `Reject ];
  merger : Heaps.Multiway.merger;
  verifier : S.Verify.verifier;
  metrics : bool;
  explain : Explain.t option;
  doc_id : int;
}

type input = [ `Text of string | `Doc of Tk.Document.t ]

type report = {
  outcome : result list Outcome.t;
  stats : Types.stats;
  elapsed_ns : int64;
}

let default_opts =
  {
    pruning = Binary_window;
    budget = Budget.spec_unlimited;
    oversize = `Chunk;
    merger = Heaps.Multiway.Scan_count;
    verifier = S.Verify.Auto;
    metrics = true;
    explain = None;
    doc_id = 0;
  }

exception Tokenize_exn of string

let tokenize_checked problem text =
  try Problem.tokenize_document problem text with
  | (Fault.Injected _ | Budget.Exhausted _) as e -> raise e
  | Invalid_argument msg | Failure msg -> raise (Tokenize_exn msg)

(* Filter + verify + fallback on one tokenized document — shared by the
   legacy wrappers (exceptions propagate) and [run] (which contains them). *)
let extract_matches ?merger ?verifier ~pruning ~budget t doc =
  let r =
    Single_heap.run_budgeted ?merger ?verifier ~pruning ~budget t.problem doc
  in
  let main = List.map (char_match_of_token_match doc) r.Single_heap.matches in
  let fallback = Fallback.run ?verifier t.problem doc in
  let all = List.sort_uniq compare_char_match (List.rev_append fallback main) in
  (all, r.Single_heap.stats, r.Single_heap.exhausted)

let extract ?(pruning = Binary_window) t raw =
  let doc = tokenize t raw in
  let all, _, _ = extract_matches ~pruning ~budget:Budget.unlimited t doc in
  results_of_char_matches t doc all

(* Slice an oversize document into bounded pieces for chunked extraction. *)
let pieces_of_string text piece_len =
  let n = String.length text in
  let rec at i () =
    if i >= n then Seq.Nil
    else
      let len = min piece_len (n - i) in
      Seq.Cons (String.sub text i len, at (i + len))
  in
  at 0

let run_contained opts t input =
  let stats = new_stats () in
  let outcome =
    Fault.with_context opts.doc_id @@ fun () ->
    try
      let oversize_route =
        match (input, opts.budget.Budget.max_bytes) with
        | `Text text, Some limit when String.length text > limit ->
            Some (text, limit)
        | (`Text _ | `Doc _), _ -> None
      in
      match oversize_route with
      | Some (text, limit) -> (
          match opts.oversize with
          | `Reject ->
              Outcome.Failed
                (Outcome.Doc_too_large { bytes = String.length text; limit })
          | `Chunk ->
              (* Degrade to bounded-memory streaming extraction: results are
                 still complete, but peak memory is capped near [limit]. *)
              let ms =
                Chunked.extract_seq ~pruning:opts.pruning
                  ~min_buffer_chars:limit t.problem
                  (pieces_of_string text (max 1 (min limit 65536)))
              in
              Outcome.Degraded
                ( results_of_text t text ms,
                  Outcome.Oversize_chunked { bytes = String.length text; limit }
                ))
      | None ->
          let b = Budget.start opts.budget in
          let doc =
            match input with
            | `Doc doc -> doc
            | `Text text -> tokenize_checked t.problem text
          in
          let all, st, exhausted =
            extract_matches ~merger:opts.merger ~verifier:opts.verifier
              ~pruning:opts.pruning ~budget:b t doc
          in
          blit_stats ~src:st ~dst:stats;
          let results = results_of_char_matches t doc all in
          (match exhausted with
          | None -> Outcome.Ok results
          | Some e -> Outcome.Degraded (results, Outcome.Partial e))
    with
    | Fault.Injected site -> Outcome.Failed (Outcome.Injected_fault site)
    | Budget.Exhausted e -> Outcome.Failed (Outcome.Budget_exhausted e)
    | Tokenize_exn msg -> Outcome.Failed (Outcome.Tokenize_error msg)
    | Ix.Codec.Corrupt msg -> Outcome.Failed (Outcome.Corrupt_index msg)
    | exn ->
        let backtrace = Printexc.get_backtrace () in
        Outcome.Failed
          (Outcome.Worker_crash (Outcome.exn_info_of ~backtrace exn))
  in
  (outcome, stats)

let run ?(opts = default_opts) t input =
  let body () =
    Prof.with_doc @@ fun () ->
    (* One atomic load per facility on the disabled path: slowlog is
       checked once here (the stage brackets re-check inside
       Prof.with_stage), sampling never reaches this layer (the serve
       loop decides per ordinal and arms a Trace context). *)
    let slow = Slowlog.armed () in
    if slow then Slowlog.doc_begin ();
    let t0 = Trace.now_ns () in
    let outcome, stats =
      Trace.with_span "extract_doc" (fun () -> run_contained opts t input)
    in
    let elapsed_ns = Int64.sub (Trace.now_ns ()) t0 in
    let trace = Trace.current_trace () in
    Metrics.incr m_docs;
    (if trace = 0 then Metrics.observe m_doc_wall (Int64.to_float elapsed_ns)
     else Metrics.observe_ex m_doc_wall (Int64.to_float elapsed_ns) ~trace);
    if slow then
      Slowlog.doc_end ~wall_ns:(Int64.to_float elapsed_ns) ~trace;
    Metrics.incr
      (match outcome with
      | Outcome.Ok _ -> m_docs_ok
      | Outcome.Degraded _ -> m_docs_degraded
      | Outcome.Failed _ -> m_docs_failed);
    { outcome; stats; elapsed_ns }
  in
  let body () =
    if opts.metrics then body () else Metrics.with_suppressed body
  in
  match opts.explain with
  | None -> body ()
  | Some sink ->
      Explain.with_sink sink (fun () ->
          Explain.emit sink (Explain.Doc { doc_id = opts.doc_id });
          body ())

let result_to_string t r =
  ignore t;
  Format.asprintf "[%d,%d) %S ~ e%d=%S (%a)" r.start_char
    (r.start_char + r.len_chars) r.matched_text r.entity_id r.entity
    S.Verify.Score.pp r.score
