(** Supervised serving layer over {!Extractor}: a pool of worker domains
    with crash supervision, per-document retry, poison-document quarantine
    and deadline-aware load shedding.

    {!Parallel} is a batch engine: it contains per-document failures but
    assumes workers live for the whole batch and every document runs
    exactly once. A long-running service needs more: a worker domain that
    dies (bug, injected fault) must be replaced without losing the
    document it held; a document that fails transiently deserves a bounded
    number of retries with backoff; a document that fails {e every}
    attempt is poison and must be taken out of the flow with enough
    context to reproduce the failure offline; and a document whose
    deadline passed while it queued should be refused, not started.

    The supervision loop guarantees {b exactly-one-outcome}: every
    submitted document's [on_done] callback fires exactly once, with one
    of [Ok], [Degraded], [Failed], [Failed (Shed _)] or
    [Failed (Quarantined _)] — no document is lost to a worker crash and
    none is reported twice, which the fuzz harness checks under randomized
    worker-death campaigns.

    Determinism: all randomness (backoff jitter) comes from
    {!Faerie_util.Xorshift} seeded from [retry.seed], and retry attempts
    re-key the {!Faerie_util.Fault} context (attempt [k > 0] of document
    [d] uses a mix of [d] and [k]) so an injected fault schedule is a pure
    function of [(campaign seed, doc, attempt)] — reproducible regardless
    of which domain runs the attempt. *)

type outcome = Parallel.outcome

(** {1 Retry policy} *)

type retry = {
  retries : int;  (** max re-attempts after the first try; 0 = no retry *)
  backoff_ms : int;
      (** base backoff; attempt [k] waits up to [backoff_ms * 2^k] ms
          (full jitter). [<= 0] disables sleeping entirely (tests). *)
  backoff_max_ms : int;  (** cap on the backoff window *)
  seed : int;  (** jitter seed — fixed seed, fixed schedule *)
}

val default_retry : retry
(** [{ retries = 2; backoff_ms = 10; backoff_max_ms = 1000; seed = 0 }] *)

val fault_key : doc_id:int -> attempt:int -> int
(** The fault-context key used for attempt [attempt] of [doc_id]:
    [doc_id] itself on the first attempt (so supervised and batch runs see
    identical schedules), a deterministic re-key for each retry. Exposed so
    replay harnesses can reconstruct the exact context a quarantined
    document ran under. *)

val shard_fault_key : doc_id:int -> shard:int -> attempt:int -> int
(** Shard-salted {!fault_key} used by {!Cluster}: the same document gets an
    independent deterministic fault schedule on every shard, so injected
    shard crashes are uncorrelated across the fan-out. *)

val backoff_delay_ms : retry -> doc_id:int -> attempt:int -> int
(** The exact delay (ms) slept before re-attempt [attempt >= 1] of
    [doc_id]: full jitter, uniform in [\[1, min(backoff_max_ms,
    backoff_ms * 2^(attempt-1))\]], deterministic in
    [(seed, doc_id, attempt)]. [0] when [backoff_ms <= 0]. *)

(** {1 Pool configuration} *)

type config = {
  domains : int;
      (** worker domains. [0] is allowed on {!create} (no workers run —
          useful for deterministic admission-control tests);
          {!run_batch} forces at least 1. *)
  retry : retry;
  queue_capacity : int;  (** bounded admission queue size *)
  quarantine : string option;
      (** dead-letter NDJSON file (appended); [None] disables quarantine —
          exhausted documents finish as plain [Failed] *)
  shed : bool;
      (** when [true]: a submit against a full queue is refused
          immediately with [Shed Queue_full] (instead of blocking), and a
          queued document whose admission deadline has expired is refused
          with [Shed Deadline_expired] instead of started *)
  shard : int option;
      (** cluster shard id stamped into quarantine records written by this
          pool; [None] (the default) for standalone pools *)
}

val default_config : config
(** [domains = Domain.recommended_domain_count () - 1] (min 1),
    {!default_retry}, [queue_capacity = 64], no quarantine file,
    [shed = false]. *)

(** {1 Quarantine records} *)

module Quarantine : sig
  type record = {
    doc_id : int;  (** fault-context key of the first attempt *)
    id : string option;  (** caller-supplied request id, if any *)
    shard : int option;
        (** cluster shard that owned the failure, when written by a
            {!Cluster} member or coordinator *)
    attempts : int;  (** total attempts made (first try + retries) *)
    error : string;  (** rendering of the last error *)
    sim : Faerie_sim.Sim.t;
    q : int;
    pruning : Types.pruning;
    budget : Faerie_util.Budget.spec;
    fault : Faerie_util.Fault.config option;
        (** the armed fault campaign, for exact replay *)
    gen : int;
        (** dictionary generation serving at failure time ([0] in records
            written before dynamic dictionaries existed); replay tooling
            refuses a mismatched generation, since the text would extract
            against a different dictionary and not reproduce *)
    text : string;  (** the poison document itself *)
  }
  (** A self-contained repro: [fuzz.exe --replay=FILE --dict=DICT] rebuilds
      the problem, re-arms [fault] and re-runs the document. *)

  val to_json : record -> string
  (** One NDJSON line (no newline). *)

  val of_json : string -> (record, string) result

  (** {2 Dead-letter sink}

      Every record is one {!Faerie_obs.Append_log} append, so any number
      of processes (cluster coordinator plus shard children) appending to
      the same dead-letter file produce whole, never-interleaved NDJSON
      lines, however long the document text. *)

  type sink

  val open_sink : string -> sink
  (** @raise Unix.Unix_error if the file cannot be opened/created. *)

  val append : sink -> record -> unit

  val close_sink : sink -> unit
  (** Idempotent; swallows close errors. *)
end

(** {1 Pool lifecycle} *)

type t

val create : ?config:config -> (unit -> Extractor.t) -> t
(** [create getter] starts [config.domains] worker domains. [getter] is
    called once per attempt to obtain the extractor, so a server can swap
    in a freshly loaded index ([Atomic.set]) and in-flight work picks it
    up on the next document — the hot-reload path of [faerie serve]. *)

val note_generation : t -> int -> unit
(** Record the dictionary generation currently serving; stamped into every
    quarantine record this pool writes from now on. Safe to call from the
    owner thread while workers are extracting. Starts at [0]. *)

val submit :
  t ->
  ?id:string ->
  ?opts:Extractor.opts ->
  ?deadline_ns:int64 ->
  ?trace:int * int ->
  doc_id:int ->
  string ->
  on_done:(outcome -> unit) ->
  [ `Queued | `Shed ]
(** Submit one document. [doc_id] keys fault context and backoff jitter
    and should be the document's arrival ordinal. [deadline_ns] overrides
    the admission deadline otherwise derived from [opts.budget.timeout_ms]
    (tests use it to force expiry). [trace] is a [(trace id, depth)]
    context: the worker runs the document's attempt spans under
    {!Faerie_obs.Trace.with_context} with it, so spans land tagged with
    the caller's request trace at the right absolute depth. Returns
    [`Shed] — and completes the document synchronously with
    [Failed (Shed Queue_full)] — when the queue is full and
    [config.shed]; otherwise blocks until queue space frees
    (backpressure) and returns [`Queued].

    [on_done] is invoked exactly once, from a worker domain (or from the
    submitting domain for synchronous sheds), outside the pool lock; it
    must not call back into [t]. Exceptions it raises are swallowed.

    @raise Invalid_argument after {!shutdown}. *)

val drain : t -> unit
(** Block until every submitted document has completed. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop the pool and join every worker domain (including respawned
    replacements). [drain] (default [true]) first waits for queued work;
    [~drain:false] completes still-queued documents with
    [Failed (Shed Shutdown)] without running them. Idempotent. *)

val worker_restarts : t -> int
(** Worker domains respawned after a death, over the pool's lifetime. *)

val queue_depth : t -> int
(** Documents currently waiting (admission queue + death-requeues);
    excludes documents being processed right now. *)

val note_queue_depth : t -> unit
(** Record {!queue_depth} into the ["pool_queue_depth"] gauge so it rides
    along in metrics snapshots (the shard stats path calls this just
    before snapshotting). *)

(** {1 One-shot batch} *)

val run_batch :
  ?config:config ->
  ?opts:Extractor.opts ->
  Problem.t ->
  string array ->
  outcome array * Outcome.summary
(** [run_batch problem docs]: submit every document through a fresh
    supervised pool ([doc_id] = array index), drain, shut down, and
    return outcomes in input order plus a summary — {!Parallel.extract_all_outcomes}
    semantics but with supervision, retry, quarantine and shedding.
    The pool is always shut down, even on exceptions. *)
