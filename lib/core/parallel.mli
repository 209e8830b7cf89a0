(** Fault-isolated, budget-aware parallel extraction over a document
    collection (OCaml 5 domains).

    A {!Problem.t} is immutable once built — the inverted index, thresholds
    and interner are only read during extraction — so one problem can be
    shared by several domains, each stealing documents off a shared
    counter. Speedup is near-linear in cores for document-heavy workloads
    (the paper's setting: 1k–10k documents per dictionary).

    The pipeline boundary is {!extract_one_outcome}: no exception raised
    while processing one document (a crash in tokenization, merging or
    verification, an injected {!Faerie_util.Fault} or a tripped
    {!Faerie_util.Budget}) ever escapes — each maps to a structured
    {!Outcome.t} for exactly that document, and every other document in
    the batch is unaffected. Spawned domains are always joined, even when
    a worker raises. *)

type outcome = Types.char_match list Outcome.t

val outcome_of_report : Extractor.report -> outcome
(** Project an {!Extractor.report} down to its outcome, discarding stats;
    matches come in {!Types.compare_span} order, as a {!Cluster} merge
    lists them. Shared with {!Supervisor}, which re-runs [Extractor.run]
    per retry attempt and needs the same projection. *)

val extract_one_outcome :
  ?pruning:Types.pruning ->
  ?budget:Faerie_util.Budget.spec ->
  ?oversize:[ `Chunk | `Reject ] ->
  ?stats:Types.stats ->
  doc_id:int ->
  Problem.t ->
  string ->
  outcome
(** [extract_one_outcome ~doc_id problem text] extracts one document inside
    a fault/budget containment boundary. [doc_id] keys the
    {!Faerie_util.Fault} context (and should be the document's batch
    index, so fault campaigns are deterministic under work stealing).

    Budget semantics: a document larger than [budget.max_bytes] is routed
    by [oversize] — [`Chunk] (default) degrades to bounded-memory
    {!Chunked} extraction and returns [Degraded (ms, Oversize_chunked _)]
    with the complete result set; [`Reject] returns
    [Failed (Doc_too_large _)]. A deadline or candidate budget tripping
    mid-filter returns [Degraded (ms, Partial _)] where [ms] are the
    matches verified before the trip — a subset of the full result set.

    [stats] (optional) receives the filter statistics of the run. *)

val extract_all_outcomes :
  ?pruning:Types.pruning ->
  ?domains:int ->
  ?budget:Faerie_util.Budget.spec ->
  ?oversize:[ `Chunk | `Reject ] ->
  Problem.t ->
  string array ->
  outcome array * Outcome.summary
(** [extract_all_outcomes problem docs] runs {!extract_one_outcome} over
    every document (in parallel when [domains > 1]) and returns
    per-document outcomes in input order plus a batch summary. Guarantees:
    every spawned domain is joined before returning, even if a worker
    raises; one document's failure never perturbs another document's
    result (outcomes for fault-free documents are identical to a run with
    no faults or budgets at all). [domains] defaults to
    [Domain.recommended_domain_count ()], capped by the number of
    documents; [1] means fully sequential (no domain is spawned). *)

val extract_all :
  ?pruning:Types.pruning ->
  ?domains:int ->
  Problem.t ->
  string array ->
  Types.char_match list array
(** [extract_all problem docs] — the historical unlimited-budget API:
    per-document matches in character coordinates, in input order,
    identical to running {!Single_heap.run} + {!Fallback.run} sequentially
    (the test suite asserts this). Implemented over
    {!extract_all_outcomes}; if a document fails outright (impossible
    without fault injection short of a genuine crash), raises [Failure]
    with the contained error's description. *)
