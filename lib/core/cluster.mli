(** Sharded multi-process serving cluster: a coordinator that partitions
    the dictionary by entity-id range ({!Shard_plan}), forks one OS
    process per shard — each running the supervised worker pool
    ({!Supervisor}) over its slice — and fans every document out to all
    shards, merging the per-shard match sets into one response.

    Process isolation is the point: a shard crash (bug, injected
    ["shard_frame"] fault, OOM kill) is a retryable event scoped to one
    slice of the dictionary, not an outage. The coordinator extends the
    supervisor's {b exactly-one-outcome} guarantee across the fan-out:

    - a shard that dies or misses its per-shard deadline is killed and
      respawned under the same capped full-jitter backoff schedule the
      in-process supervisor uses ({!Supervisor.backoff_delay_ms});
    - the in-flight document is retried against the replacement with a
      re-keyed fault context (so a deterministic injected crash does not
      re-fire forever);
    - a (doc, shard) pair that exhausts its retries is appended to the
      dead-letter NDJSON file as a self-contained replayable
      {!Supervisor.Quarantine.record} (with the [shard] field set), and
      the merged response {e degrades} to
      [Degraded (Shard_partial ...)] instead of failing the request;
    - only when no shard produced a usable result does the document fail.

    Transport is length-prefixed {!Serve_proto.Frame}s over [Unix.pipe]
    pairs; a shard killed mid-write yields a clean EOF at the torn frame
    boundary — never a torn or duplicated response. Hot reload is
    generation-consistent via two-phase commit: every shard loads the new
    snapshot ([Prepare]), and only after {e all} acks does the
    coordinator bump the cluster generation and [Commit]; any failure
    aborts the whole generation and keeps serving the old one, so two
    shards never serve different generations of the dictionary to one
    document.

    Forking requires the coordinator to be the {e only} live domain in
    its process (OCaml 5 restriction); worker domains exist only inside
    shard children, spawned after the fork. *)

type config = {
  shards : int;  (** shard process count, [>= 1] *)
  pool : Supervisor.config;
      (** per-shard worker pool; [pool.quarantine] names the shared
          dead-letter file that shards and the coordinator all append to
          (safe: whole {!Faerie_obs.Append_log} records), and [pool.shard] is
          overridden per shard *)
  retry : Supervisor.retry;
      (** coordinator policy: per-document cross-shard retries and the
          shard respawn backoff schedule *)
  shard_timeout_ms : int option;
      (** per-(doc, shard) response deadline; a miss kills and restarts
          the shard. [None] waits indefinitely (trust the per-document
          budget inside the shard). *)
  pruning : Types.pruning;
  budget : Faerie_util.Budget.spec;  (** base per-document budget *)
  snapshot_dir : string option;
      (** where per-shard index snapshots live; [None] uses a private
          temp directory removed on shutdown *)
  slow_stages : bool;
      (** arm each shard's {!Faerie_obs.Slowlog} stage scratch so Result
          frames carry a per-stage wall breakdown (serve's slow-query
          log). Off by default, so shards without a slowlog to feed skip
          the stage brackets and the extra frame field. *)
}

val default_config : config
(** 2 shards, single-domain pools, {!Supervisor.default_retry}, no shard
    deadline, binary-window pruning, unlimited budget, temp snapshots. *)

type t

val create :
  ?config:config -> sim:Faerie_sim.Sim.t -> q:int -> (unit -> string list) -> t
(** [create ~sim ~q load] calls [load ()] for the dictionary, writes the
    generation-0 shard snapshots and forks the shard processes, waiting
    for each shard's Ready. [load] is called again on every {!reload}.
    @raise Invalid_argument on [shards <= 0].
    @raise Failure when a shard cannot be started at all. *)

val generation : t -> int
(** Current cluster-wide index generation — the one every shard has
    committed. *)

val submit :
  t ->
  ?id:string ->
  ?timeout_ms:int ->
  ?stages_out:(string * float) list ref ->
  doc:int ->
  string ->
  Parallel.outcome
(** Fan one document to every shard and merge. Blocks until the merged
    outcome is settled (every shard answered, was retried, or was written
    off). [doc] is the arrival ordinal: it keys per-shard fault contexts
    ({!Supervisor.shard_fault_key}) and backoff jitter. [id] is stamped
    into quarantine records. [timeout_ms] overrides the per-document
    budget inside shards. When [config.slow_stages] is on, [stages_out]
    receives the element-wise {e max} across shards of the per-stage
    wall breakdowns from the Result frames (the critical-path view — the
    fan-out's wall time follows its slowest shard).

    Merge semantics: usable match sets concatenate (entity ranges are
    disjoint) and sort by (start, length, entity) — byte-identical
    regardless of shard count; all shards usable and clean -> [Ok]; all
    usable but some degraded -> [Degraded] with the lowest shard's
    reason; some shards missing after retries ->
    [Degraded (_, Shard_partial)]; no usable shard -> [Failed] with the
    lowest shard's error.

    @raise Invalid_argument after {!shutdown}. *)

val reload : t -> (int, string) result
(** Two-phase, generation-consistent reload: rebuild shard snapshots from
    [load ()], [Prepare] on every live shard, and only once all ack,
    commit the new generation (also reviving any shard that was down).
    On any prepare failure the generation is aborted — pending snapshots
    dropped, files removed, old generation keeps serving — and the error
    is returned. [Ok gen] returns the new generation. *)

(** {1 Online mutation}

    The coordinator owns the authoritative dynamic dictionary: every
    accepted mutation is journaled per owning shard {e before} it is
    routed, and a shard that crashes is replayed its journal (in original
    order) on respawn — so a mutation, once accepted, survives any shard
    death. Added entities get fresh global ids past the partitioned id
    space and round-robin over shards ({!Shard_plan.owner_dyn}); matches
    they produce are translated back through the per-shard add map, so
    {!submit} responses are indistinguishable from a dictionary that
    always contained them. Journals, add maps and tombstones reset at
    every committed snapshot generation ({!reload} or {!compact}), whose
    entity array subsumes them. *)

val dict_add : t -> string -> [ `Added of int | `Exists of int ]
(** Add one raw entity. [`Added id] is its fresh global id; [`Exists id]
    means the raw is already live (no-op, nothing journaled).
    @raise Invalid_argument after {!shutdown}. *)

val dict_remove : t -> string -> [ `Removed of int | `Absent ]
(** Tombstone one raw entity (snapshot-born or dynamically added).
    [`Absent] means no live entity has this raw (no-op, nothing
    journaled). The raw can be re-added later under a fresh id.
    @raise Invalid_argument after {!shutdown}. *)

val compact : t -> (int * int, string) result
(** Fold every pending mutation into a fresh snapshot generation via the
    same two-phase Prepare/Commit swap as {!reload}. [Ok (gen, folded)]
    returns the committed generation and how many mutations it absorbed.
    Crash-safe at both injected fault sites: ["compact_save"] (dies while
    building the new snapshots — nothing has changed) and
    ["compact_commit"] (dies after every shard prepared — the swap
    aborts); either way the old generation keeps serving and the journals
    keep their mutations. Fault context is the generation being built.
    @raise Invalid_argument after {!shutdown}. *)

val delta_entities : t -> int
(** Mutations pending since the serving snapshot generation (what
    {!compact} would fold). *)

val live_count : t -> int
(** Live dictionary size: snapshot entities minus tombstones plus
    dynamic adds. *)

val entity_raw : t -> int -> string option
(** The raw string behind a global entity id, [None] if out of range or
    tombstoned. Resolves both snapshot and dynamically added ids —
    useful for mapping {!submit} match ids back to entities. *)

val shutdown : t -> unit
(** Graceful teardown: each shard drains its pool, reports its Bye stats
    and exits; stragglers are killed. Temp snapshot dirs are removed.
    Idempotent. *)

type totals = {
  shard_restarts : int;  (** shard processes killed and respawned *)
  shard_timeouts : int;  (** per-shard deadline misses *)
  docs_partial : int;  (** documents answered [Shard_partial] *)
  quarantined_pairs : int;
      (** (doc, shard) pairs the coordinator dead-lettered *)
  worker_restarts : int;
      (** worker-domain respawns inside shard pools (summed from Byes;
          complete only after {!shutdown}) *)
  shard_quarantined : int;
      (** documents quarantined inside shard pools (summed from Byes) —
          best-effort: an incarnation killed after appending its
          dead-letter record but before its Bye leaves a durable,
          replayable line this count never sees *)
}

val totals : t -> totals

val stats :
  t ->
  Faerie_obs.Metrics.snapshot
  * (int * Faerie_obs.Metrics.snapshot option) list
(** Pull every live shard's full metrics snapshot ({!Serve_proto.Shard}
    [Stats_req]/[Stats_reply] frames) and merge them — together with the
    coordinator's own registry — via
    {!Faerie_obs.Metrics.merge_snapshots}. Returns the merged snapshot and
    the per-shard pulls in shard order; [None] marks a shard that was
    down, died mid-stats (it is restarted, like any mid-request death) or
    missed the deadline (not restarted — it may be busy). One shared
    absolute deadline ([shard_timeout_ms], else the handshake timeout)
    bounds the whole fan-out: a partial merge is returned, the call never
    hangs and never raises on shard failure.
    @raise Invalid_argument after {!shutdown}. *)

val health : t -> string * Serve_proto.shard_health list
(** Coordinator-local liveness view, no shard round-trips: per shard
    up/generation/restart-count (queue depth is always 0 here — the
    coordinator keeps at most one document in flight per shard), journal
    length ([h_delta] — pending mutations owned by that shard) and the
    age of the serving snapshot generation ([h_compact_age_s]), plus the
    overall status: ["ok"] when every shard is up, ["degraded"]
    otherwise. *)

val run_batch :
  ?config:config ->
  sim:Faerie_sim.Sim.t ->
  q:int ->
  entities:string list ->
  string array ->
  Parallel.outcome array * Outcome.summary * totals
(** One-shot batch through a fresh cluster ([doc] = array index): create,
    submit sequentially, shut down (always, even on exceptions), and
    return outcomes in input order with the summary and cluster totals.
    The fuzz shard-kill campaign drives this to assert the zero-lost-
    documents invariant. *)
