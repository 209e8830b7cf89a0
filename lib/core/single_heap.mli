(** The single-heap filtering algorithm (Sections 3.3–5).

    One multiway merge over the inverted lists of every document token
    position streams each entity's complete, sorted position list while
    scanning every inverted list exactly once. The paper uses one min-heap
    for it; the default engine is ScanCount, which streams the same lists
    (see {!Faerie_heaps.Multiway}). Occurrence counting /
    candidate generation then runs at one of four pruning levels
    ({!Types.pruning}); [Binary_window] is the full Faerie filter.

    Entities on the {!Problem.Fallback} or {!Problem.Impossible} paths are
    ignored here — {!Fallback.run} completes the answer. *)

val run :
  ?merger:Faerie_heaps.Multiway.merger ->
  ?pruning:Types.pruning ->
  ?verifier:Faerie_sim.Verify.verifier ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  Types.token_match list * Types.stats
(** [run ?merger ?pruning ?verifier problem doc] returns the verified
    matches (deduplicated, sorted by (entity, start, len)) and filtering
    statistics. Default pruning is [Binary_window]; [merger] selects the
    multiway merge engine (default [Scan_count]; every engine gives the
    same matches and statistics); [verifier] the
    edit-distance engine for character-based verification (default
    [Auto]). *)

type report = {
  matches : Types.token_match list;
      (** verified matches, deduplicated, sorted by (entity, start, len) *)
  stats : Types.stats;  (** filtering statistics for this run *)
  exhausted : Faerie_util.Budget.exhaustion option;
      (** [Some _] when a budget limit tripped and [matches] is a sound
          subset of the full result set (never a superset) *)
}

val run_budgeted :
  ?merger:Faerie_heaps.Multiway.merger ->
  ?pruning:Types.pruning ->
  ?budget:Faerie_util.Budget.t ->
  ?verifier:Faerie_sim.Verify.verifier ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  report
(** Like {!run}, but charges the filter loop (one candidate per emitted
    candidate, one deadline tick per entity and per verification) against
    [budget]. If a limit trips, filtering/verification stops early and the
    matches verified so far are returned in {!report.matches} together with
    the exhaustion reason. *)

val candidates :
  ?merger:Faerie_heaps.Multiway.merger ->
  pruning:Types.pruning ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  Types.candidate list * Types.stats
(** Filter only — the deduplicated surviving substring–entity pairs, before
    verification. Exposed for testing and for the Fig. 14 candidate-count
    experiment. *)
