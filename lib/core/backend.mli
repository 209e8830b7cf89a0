(** [faerie serve]'s configuration, and the signature of the backends its
    one request loop ({!Server.run}) serves through. A backend owns how a
    document is extracted and how its dictionary changes. *)

type config = {
  sim : Faerie_sim.Sim.t;
  q : int;
  dict : string option;  (** dictionary file, one entity per line *)
  index : string option;
      (** preferred over [dict]; its mtime change reloads, compaction
          folds into it *)
  pruning : Types.pruning;
  timeout_ms : int option;  (** default per-document budget *)
  max_doc_bytes : int option;
  pool : Supervisor.config;  (** the worker pool (per shard when sharded) *)
  shards : int;  (** [0]: one in-process pool; [N > 0]: an N-shard cluster *)
  shard_timeout_ms : int option;
  metrics_format : [ `Jsonl | `Prometheus ];
  stats_interval_s : int;  (** [0]: no ticker *)
  trace_sample_rate : float;
  trace_seed : int;
  slow_ms : float option;
  slowlog : string option;
  slowlog_k : int;
  slo : Faerie_obs.Slo.objective;
  wal : string option;
  inject : Faerie_util.Fault.config option;
  reload_requested : bool Atomic.t;  (** set by a SIGHUP handler *)
  tick_requested : bool Atomic.t;  (** set by a SIGALRM handler *)
}

type completion = {
  outcome : Parallel.outcome;
  timing : (float * (string * float) list) option;
      (** wall and per-stage ns, when measured (slow-query capture) *)
}

type health = {
  status : string;  (** ["ok"] or ["degraded"], before the SLO verdict *)
  max_rss_bytes : float;
  shards : Serve_proto.shard_health list;
}

module type S = sig
  type t

  val local_metrics : bool
  (** This process's registry holds all of the backend's metrics, so a
      health probe may assess the SLO without a stats pull. *)

  val submit :
    t ->
    doc:int ->
    id:string option ->
    budget:Faerie_util.Budget.spec ->
    trace:int ->
    string ->
    (completion -> unit) ->
    unit
  (** Extract one document: [doc] is the arrival ordinal, [trace] the
      sampled trace id ([0]: unsampled). The callback fires exactly once,
      possibly from another domain after [submit] returned. *)

  val apply : t -> Faerie_util.Wal.op -> bool * int
  (** Apply one mutation: [(applied, entity)] as {!Live_dict.apply}. *)

  val reload :
    t -> reapply:((Faerie_util.Wal.op -> unit) -> unit) -> (int, string) result
  (** Reload from the source, calling [reapply] (which feeds the WAL's
      pending mutations to the function given) so that no generation
      serves without them. The new generation, or why the old one stays. *)

  val compact :
    t -> index:string option -> wal:bool -> (int * int, string) result
  (** Fold pending mutations into a new [(generation, folded)], saved to
      [index] when given; [wal]: the caller then truncates its WAL. *)

  val generation : t -> int
  (** Safe from any domain. *)

  val live_count : t -> int

  val stats : t -> Faerie_obs.Metrics.snapshot * int list
  (** A metrics snapshot and the shards missing from it. *)

  val health : t -> health
  (** Without round-trips to other processes. *)

  val close : t -> Faerie_obs.Metrics.snapshot
  (** Finish every submitted document, stop, take the final snapshot. *)

  val summary_counts : t -> (string * int) list
  (** Extra counts for the summary line (after {!close}). *)
end
