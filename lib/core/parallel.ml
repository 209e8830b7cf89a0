module Budget = Faerie_util.Budget
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Prof = Faerie_obs.Prof
open Types

type outcome = char_match list Outcome.t

let m_batches =
  Metrics.counter ~help:"parallel extraction batches" "parallel_batches"

let m_docs_per_worker =
  Metrics.histogram ~help:"documents processed per worker domain in a batch"
    ~buckets:[| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 1000.; 10000. |]
    "docs_per_worker"

let char_match_of_result (r : Extractor.result) =
  {
    c_entity = r.Extractor.entity_id;
    c_start = r.Extractor.start_char;
    c_len = r.Extractor.len_chars;
    c_score = r.Extractor.score;
  }

let outcome_of_report (r : Extractor.report) : outcome =
  let conv rs = List.sort compare_span (List.map char_match_of_result rs) in
  match r.Extractor.outcome with
  | Outcome.Ok rs -> Outcome.Ok (conv rs)
  | Outcome.Degraded (rs, why) -> Outcome.Degraded (conv rs, why)
  | Outcome.Failed err -> Outcome.Failed err

(* The containment boundary lives in {!Extractor.run}; this layer only
   translates results back to character matches and aggregates batches. *)
let run_one ex ?pruning ~budget ~oversize ?stats ~doc_id text : outcome =
  let opts =
    {
      Extractor.default_opts with
      Extractor.pruning = Option.value pruning ~default:Binary_window;
      budget;
      oversize;
      doc_id;
    }
  in
  let report = Extractor.run ~opts ex (`Text text) in
  (match stats with
  | Some dst -> blit_stats ~src:report.Extractor.stats ~dst
  | None -> ());
  outcome_of_report report

let extract_one_outcome ?pruning ?(budget = Budget.spec_unlimited)
    ?(oversize = `Chunk) ?stats ~doc_id problem text : outcome =
  run_one (Extractor.of_problem problem) ?pruning ~budget ~oversize ?stats
    ~doc_id text

let extract_all_outcomes ?pruning ?domains ?(budget = Budget.spec_unlimited)
    ?(oversize = `Chunk) problem docs =
  let t0 = Trace.now_ns () in
  Metrics.incr m_batches;
  let ex = Extractor.of_problem problem in
  let n = Array.length docs in
  let requested =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let workers = max 1 (min requested n) in
  let results = Array.make n (Outcome.Ok [] : outcome) in
  let process i =
    results.(i) <-
      (try run_one ex ?pruning ~budget ~oversize ~doc_id:i docs.(i)
       with exn ->
         (* Extractor.run already contains everything; this is the
            last-resort belt under the braces (e.g. allocation failure while
            building the outcome itself). *)
         Outcome.Failed (Outcome.Worker_crash (Outcome.exn_info_of exn)))
  in
  if workers <= 1 || n = 0 then begin
    for i = 0 to n - 1 do
      process i
    done;
    if n > 0 then Metrics.observe m_docs_per_worker (float_of_int n);
    Prof.note_top_heap ()
  end
  else begin
    (* Work stealing via a shared atomic counter: documents vary wildly in
       size, so static slicing would leave domains idle. *)
    let next = Atomic.make 0 in
    let worker () =
      let mine = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          process i;
          mine := !mine + 1;
          loop ()
        end
      in
      loop ();
      Metrics.observe m_docs_per_worker (float_of_int !mine);
      (* Flush this domain's heap watermark into the max-merged gauge
         before the domain retires. *)
      Prof.note_top_heap ()
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    (* Every spawned domain is joined even if the main-thread worker raises
       (it should not: [process] swallows everything) — a leaked domain
       would keep stealing work against a collection the caller believes is
       finished. A crashed domain's exception is already reflected in the
       per-document outcomes, so the join itself must not re-raise. *)
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun d -> match Domain.join d with () -> () | exception _ -> ())
          spawned)
      worker
  end;
  let elapsed_ns = Int64.sub (Trace.now_ns ()) t0 in
  (results, Outcome.summarize ~elapsed_ns results)

let extract_all ?pruning ?domains problem docs =
  let outcomes, _ = extract_all_outcomes ?pruning ?domains problem docs in
  Array.map
    (function
      | Outcome.Ok ms | Outcome.Degraded (ms, _) -> ms
      | Outcome.Failed err ->
          failwith ("Parallel.extract_all: " ^ Outcome.error_to_string err))
    outcomes
