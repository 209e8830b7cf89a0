(** Deterministic fault injection for robustness testing.

    Library code marks named {e injection sites} ([Fault.site "tokenize"]);
    a test harness arms the registry with a seed and per-site failure
    probabilities, and each site call then raises {!Injected} with that
    probability. Whether a given call fires is a pure function of
    [(seed, site, document context, call ordinal within the context)] — no
    hidden global RNG state — so a campaign is exactly reproducible from
    its seed regardless of domain scheduling or work-stealing order: the
    same document always experiences the same faults.

    When the registry is disarmed (the default, and the only state
    production code ever runs in) a site call is a single atomic load and
    branch — effectively a no-op; no per-call allocation, hashing or
    branching on site names happens. Sites also stay inert outside a
    {!with_context} scope, so dictionary building and other setup work is
    never faulted even while a campaign is armed. *)

exception Injected of string
(** [Injected site] — the deliberate failure raised at an armed site.
    Pipeline code contains it at the per-document boundary
    ({!Faerie_core.Parallel}); it must never escape a batch run. *)

type config = {
  seed : int;  (** campaign seed; decisions derive from it deterministically *)
  rates : (string * float) list;
      (** per-site failure probability in [\[0,1\]]; unlisted sites never
          fire *)
}

val configure : config -> unit
(** Arm the registry. Safe to call from any domain; takes effect for
    subsequent {!site} calls in every domain. *)

val disarm : unit -> unit
(** Return every site to the no-op fast path. *)

val active : unit -> bool

val current : unit -> config option
(** The armed configuration, if any. Quarantine dead-letter records
    ({!Faerie_core.Supervisor}) capture it so a repro replays the exact
    fault schedule the document experienced. *)

val config_to_json : config -> Json.t
(** [{"seed":N,"rates":{SITE:P,...}}] — the ["fault"] object of repro
    records. *)

val config_of_json : Json.t -> config option
(** Inverse of {!config_to_json}; [None] without an integer ["seed"]
    (rates that are not numbers are dropped). *)

val site : string -> unit
(** [site name] raises {!Injected name} with the configured probability —
    but only when the registry is armed {e and} the calling domain is
    inside a {!with_context} scope. Otherwise it returns immediately. *)

val with_context : int -> (unit -> 'a) -> 'a
(** [with_context doc_id f] runs [f] with fault context [doc_id] set for
    the calling domain (saved/restored on exit, exception-safe). Fault
    decisions are keyed by [doc_id], so which faults a document experiences
    is independent of which domain processes it or in what order. *)

val injected_count : unit -> int
(** Total faults raised since the last {!reset_counts} (all domains). *)

val reset_counts : unit -> unit

val known_sites : string list
(** The site names wired into the library, for campaign configuration:
    ["tokenize"] (document tokenization), ["heap_merge"] (multiway
    inverted-list merge), ["verify"] (candidate verification),
    ["codec_io"] (binary index decode), ["supervisor_worker"] (the
    {!Faerie_core.Supervisor} worker loop, {e outside} the per-document
    containment boundary — an injection here simulates a worker-domain
    crash), ["codec_rename"] (the window between writing a durable temp
    file and renaming it over the snapshot in
    {!Faerie_index.Codec.save} — an injection simulates a kill between
    write and rename), ["serve_decode"] (NDJSON request decoding in
    {!Faerie_core.Serve_proto}), ["shard_frame"] (frame handling in a
    {!Faerie_core.Cluster} shard process, {e outside} the per-document
    boundary — an injection there makes the whole shard process exit
    abnormally, simulating a shard crash mid-request), ["wal_append"]
    (fired {e before} the write(2) in {!Wal.append} — an injection
    simulates a crash before the mutation reaches disk: the op must be
    rejected, not half-applied), ["wal_replay"] (fired per record during
    {!Wal.replay} — simulates a crash mid-recovery; replay must be
    idempotent so a rerun converges), ["compact_save"] (before the
    compactor writes the folded snapshot) and ["compact_commit"] (after
    the snapshot is durable but before it is adopted — an injection at
    either must leave the old generation serving and the WAL intact). *)
