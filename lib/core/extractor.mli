(** Public API: approximate dictionary-based entity extraction
    (filter with Faerie, verify exactly, report character spans).

    {!run} is the unified entry point — one call that bundles every
    execution policy ({!opts}) and returns a structured {!report}:

    {[
      let ex =
        Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2
          [ "surajit ch"; "chaudhuri"; "venkatesh" ]
      in
      let report = Extractor.run ex (`Text "... surauijt chadhurisigmod") in
      (match report.Extractor.outcome with
      | Outcome.Ok results ->
          List.iter
            (fun r -> print_endline (Extractor.result_to_string ex r))
            results
      | Outcome.Degraded (results, why) ->
          Printf.eprintf "degraded: %s\n" (Outcome.degradation_to_string why);
          List.iter
            (fun r -> print_endline (Extractor.result_to_string ex r))
            results
      | Outcome.Failed err ->
          prerr_endline (Outcome.error_to_string err))
    ]}

    {!extract} remains the one-line convenience wrapper for the common
    unlimited-budget case. *)

type t

type result = {
  entity_id : int;
  entity : string;  (** the dictionary entity (original form) *)
  start_char : int;  (** match offset in the (normalized) document *)
  len_chars : int;
  matched_text : string;  (** the matching document substring *)
  score : Faerie_sim.Verify.Score.t;
}

val create :
  sim:Faerie_sim.Sim.t ->
  ?q:int ->
  ?mode:Faerie_tokenize.Document.mode ->
  string list ->
  t
(** Build the dictionary, inverted index and per-entity thresholds once;
    reuse across documents (and freely across domains — the index is
    immutable after construction). [q] (default 2) is the gram length for
    edit distance / edit similarity and is ignored by the token-based
    functions unless [mode] forces gram tokens for them (see
    {!Problem.create}).

    @raise Invalid_argument on an invalid threshold or [q <= 0]. *)

val problem : t -> Problem.t
(** The underlying problem instance (index, thresholds) — the lower-level
    entry point used by the benchmarks. *)

val of_problem : Problem.t -> t
(** Wrap an existing problem — e.g. one built from a saved index via
    {!Problem.of_index}. *)

val results_of_char_matches :
  t ->
  Faerie_tokenize.Document.t ->
  Types.char_match list ->
  result list
(** Render raw character matches (from {!Topk}, {!Span_select},
    {!Chunked}, ...) as full results, sorted by (start, length, entity).
    The document must be the one the matches were produced from. *)

(** {1 Unified extraction} *)

type opts = {
  pruning : Types.pruning;  (** filter level, default [Binary_window] *)
  budget : Faerie_util.Budget.spec;
      (** deadline / byte / candidate limits, default unlimited *)
  oversize : [ `Chunk | `Reject ];
      (** routing for a [`Text] input over [budget.max_bytes]: [`Chunk]
          (default) degrades to bounded-memory {!Chunked} extraction with
          complete results; [`Reject] fails with [Doc_too_large] *)
  merger : Faerie_heaps.Multiway.merger;
      (** multiway merge engine, default [Scan_count]; [Binary_heap] is the
          paper's single heap and [Tournament_tree] its loser tree, both
          producing the same stream *)
  verifier : Faerie_sim.Verify.verifier;
      (** edit-distance engine for character-based verification: [Auto]
          (default) and [Myers] use the bit-parallel verifier with the
          banded DP as long-string fallback; [Banded] forces the DP. The
          choice is echoed in the Explain event stream and the
          [verify_myers]/[verify_banded] counters record the routing *)
  metrics : bool;
      (** when [false], the run writes nothing to the metrics registry
          (timings in the report are unaffected); default [true] *)
  explain : Faerie_obs.Explain.t option;
      (** audit sink for the filter cascade: when set, the run records
          structured decision events (entities streamed, prune reasons,
          per-candidate count tests, verification outcomes) into the sink
          for {!Faerie_obs.Explain.render} / [to_jsonl]. Default [None] —
          disabled, the hot path pays a single flag check and allocates
          nothing extra *)
  doc_id : int;
      (** keys the {!Faerie_util.Fault} context; set it to the document's
          batch index so fault campaigns are deterministic *)
}

val default_opts : opts
(** [Binary_window], unlimited budget, [`Chunk], [Scan_count], [Auto]
    verifier, metrics on, explain off, [doc_id = 0]. Override fields with
    [{ default_opts with ... }]. *)

type input = [ `Text of string | `Doc of Faerie_tokenize.Document.t ]
(** A raw document string, or one already tokenized by {!tokenize} (the
    oversize byte check only applies to [`Text]). *)

type report = {
  outcome : result list Outcome.t;
      (** full ([Ok]), partial/chunked ([Degraded]) or failed results *)
  stats : Types.stats;
      (** filter statistics of the single-heap run; all zeros on the
          chunked path and on failure before filtering *)
  elapsed_ns : int64;  (** wall time of the call, from {!Faerie_obs.Trace.now_ns} *)
}

val run : ?opts:opts -> t -> input -> report
(** [run ?opts t input] extracts one document inside a fault/budget
    containment boundary: no exception raised while processing escapes —
    tokenizer rejections, injected {!Faerie_util.Fault}s, tripped
    {!Faerie_util.Budget}s, corrupt-index loads and any other crash all
    map to [Failed] (or [Degraded], when sound partial results exist) in
    the report's outcome. *)

(** {1 Convenience wrappers} *)

val extract : ?pruning:Types.pruning -> t -> string -> result list
(** All substrings of the document approximately matching some entity,
    sorted by (start, length, entity). Complete and exact: the filter
    (at any pruning level) never loses a true match, and every reported
    pair passed exact verification. Unlimited budget; exceptions
    propagate (use {!run} for containment). *)

val tokenize : t -> string -> Faerie_tokenize.Document.t

val result_to_string : t -> result -> string
(** One-line human-readable rendering. *)
