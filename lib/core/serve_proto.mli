(** Wire protocols of [faerie serve]: the public NDJSON request/response
    format, and the internal length-prefixed frames a {!Cluster}
    coordinator exchanges with its shard processes.

    {1 NDJSON client protocol}

    One request per line on stdin, one response per line on stdout. A
    request is a JSON object: [{"text": "..."}], optionally with an
    ["id"] string (echoed back), a ["timeout_ms"] number (per-request
    deadline override) and a ["v"] protocol version (rejected with a
    structured error when it does not match {!version}; omitted means
    "whatever the server speaks", for pre-versioning clients). Responses
    carry a stable [ord] (arrival ordinal), ["v"], the echoed id, the
    index generation that served the request, an outcome tag
    ({!Outcome.class_name}), and — for usable outcomes — the matches as
    entity-id/offset/length triples with scores. Entity ids, not entity
    strings, so a response is meaningful against whichever snapshot
    generation it names even across hot reloads.

    Decoding is fault-isolated: the ["serve_decode"] {!Faerie_util.Fault}
    site fires inside {!parse_request}, and both injected faults and
    malformed JSON come back as [Error] — a poison request line yields an
    error response, never a dead server. *)

val version : int
(** The protocol version this build speaks (in both the NDJSON protocol's
    ["v"] field and every cluster frame). Currently [1]. *)

type request = {
  id : string option;  (** echoed into the response *)
  text : string;
  timeout_ms : int option;  (** per-request deadline override *)
}

type parse_error =
  | Malformed of string  (** bad JSON, missing fields, injected decode fault *)
  | Version_mismatch of { got : int }
      (** well-formed request speaking a protocol we do not *)

val parse_error_to_string : parse_error -> string

val parse_request : ord:int -> string -> (request, parse_error) result
(** Parse one NDJSON request line. [ord] is the arrival ordinal and keys
    the fault context for the ["serve_decode"] site. Never raises. *)

val error_json : ord:int -> parse_error -> string
(** Response line for an undecodable request:
    [{"doc":ord,"v":1,"outcome":"error","error":...}], plus
    ["got"]/["want"] fields on a version mismatch so clients can
    negotiate instead of pattern-matching the message. *)

val response_json :
  ord:int -> id:string option -> gen:int -> Parallel.outcome -> string
(** Response line for a completed document. Shape:
    [{"doc":ord,"v":1,"id":...,"gen":G,"outcome":TAG,"matches":[...]}]
    with ["matches"] present for [ok]/[degraded] (each match
    [{"e":entity,"s":start,"l":len,"score":...}]), ["error"] present
    otherwise, and ["degraded"] carrying the reason when applicable. *)

val summary_json :
  ?metrics:Faerie_obs.Metrics.snapshot ->
  ?slo:Faerie_util.Json.t ->
  ?counts:(string * int) list ->
  reloads:int ->
  Outcome.summary ->
  string
(** Final stderr line: the {!Outcome.summary_fields}, then the hot-reload
    count, then [counts] in order (a sharded server's [shards],
    [shard_restarts], [shard_timeouts], [docs_partial] and
    [quarantined_pairs]), then [slo] (a {!Faerie_obs.Slo.to_json}
    assessment) as an ["slo"] object, and — when [metrics] is given — a
    trailing ["metrics"] object in the {!Faerie_obs.Metrics.snapshot_json}
    display schema (the cluster-merged snapshot when sharded) so smoke
    jobs can assert counters straight off the summary. *)

(** {1 Admin plane}

    Admin operations share the request NDJSON stream: a line whose JSON
    has an ["op"] field is an admin op, never a document. *)

type admin =
  | Stats
  | Health
  | Slowlog_dump
  | Dict_add of string  (** [{"op":"dict_add","entity":RAW}] *)
  | Dict_remove of string  (** [{"op":"dict_remove","entity":RAW}] *)
  | Compact  (** [{"op":"compact"}] *)

val parse_admin : string -> (admin, parse_error) result option
(** [None] when the line is not an admin op (not JSON, or no ["op"]
    field) — hand it to {!parse_request}, which owns the doc ordinal and
    the fault-injection site, so admin traffic never perturbs fault
    schedules. [Some (Error _)] on an unknown op, a [dict_*] op missing
    its ["entity"] string, or version mismatch. *)

val stats_response_json :
  ?missing:int list ->
  format:[ `Jsonl | `Prometheus ] ->
  Faerie_obs.Metrics.snapshot ->
  string
(** Response line for [{"op":"stats"}]. [`Jsonl] embeds the merged
    snapshot as a ["metrics"] object
    ({!Faerie_obs.Metrics.snapshot_json} schema);
    [`Prometheus] embeds the text exposition as a ["prometheus"] string.
    A non-empty [missing] (shards that produced no snapshot before the
    deadline) adds ["partial":true] and ["missing_shards"]. *)

type shard_health = {
  h_shard : int;
  h_up : bool;  (** a live pipe to the shard process exists right now *)
  h_gen : int;  (** index generation the shard last acknowledged *)
  h_restarts : int;  (** times the coordinator respawned this shard *)
  h_queue_depth : int;  (** documents queued in the worker pool *)
  h_delta : int;
      (** pending overlay mutations on this shard ([delta_entities]) *)
  h_compact_age_s : float option;
      (** seconds since this shard's snapshot was last folded (process
          start counts as generation 0's fold); rendered as an appended
          ["compact_age_s"] field when present — the per-shard object's
          field prefix through ["queue_depth"] stays locked, new fields
          are append-only *)
}

val health_response_json :
  ?uptime_s:float ->
  ?max_rss_bytes:float ->
  ?slo:Faerie_util.Json.t ->
  status:string ->
  shard_health list ->
  string
(** Response line for [{"op":"health"}]:
    [{"v":1,"op":"health","status":S,...,"shards":[...]}] with [status]
    ["ok"|"degraded"|"slo_burn"]. [uptime_s] and [max_rss_bytes] (peak
    RSS, maxed across shard processes) add same-named numeric fields;
    [slo], a {!Faerie_obs.Slo.to_json} assessment, adds an ["slo"]
    object. Single-process serving reports itself as one pseudo-shard. *)

val dict_response_json :
  op:string -> applied:bool -> entity:int -> entities:int -> gen:int -> string
(** Success line for [{"op":"dict_add"|"dict_remove"}]: [applied] is false
    for idempotent no-ops (adding a live raw, removing an absent one),
    [entity] the id the mutation resolved to (-1 when none), [entities]
    the live count after the op, [gen] the serving snapshot generation the
    overlay rides on. *)

val compact_response_json : gen:int -> folded:int -> entities:int -> string
(** Success line for [{"op":"compact"}]: the overlay ([folded] pending
    mutations) was folded into a durable generation-[gen] snapshot of
    [entities] live entities and the WAL truncated. *)

val admin_error_json : op:string -> string -> string
(** Failure line for an admin op (WAL append rejected, compaction aborted,
    mutations not armed): [{"v":1,"op":OP,"outcome":"error","error":MSG}];
    the dictionary is untouched. *)

val slowlog_response_json : total:int -> Faerie_util.Json.t list -> string
(** Response line for [{"op":"slowlog"}]:
    [{"v":1,"op":"slowlog","total":N,"records":[...]}] where each record
    is a {!Slowrec.to_json} object (slowest first) and
    [total] counts every capture since startup, including records the
    bounded ring has since evicted. *)

(** {1 Slowlog records}

    The self-contained repro format of the slow-query log — the
    {!Faerie_core.Supervisor.Quarantine} record shape extended with the
    observation that made the request interesting (wall time, outcome
    class, per-stage breakdown, sampling trace id) and discriminated by
    a ["kind":"slowlog"] field so [fuzz --replay] can tell the two
    record kinds apart in one NDJSON stream: quarantine records
    reproduce iff the document fails again, slowlog records reproduce
    iff the outcome class matches. *)

module Slowrec : sig
  type t = {
    doc_id : int;
        (** the fault-context key the run used (serve ordinal in single
            mode, shard-salted key in cluster mode) *)
    id : string option;  (** client-provided request id, if any *)
    trace : int;  (** sampling trace id; [0] = unsampled *)
    gen : int;  (** snapshot generation that served the request *)
    wall_ms : float;
    outcome : string;  (** {!Outcome.class_name}: ok/degraded/failed *)
    stages_ms : (string * float) list;
        (** per-stage wall breakdown; [[]] when stage brackets were not
            armed in the serving process *)
    sim : Faerie_sim.Sim.t;
    q : int;
    pruning : Types.pruning;
    budget : Faerie_util.Budget.spec;
    fault : Faerie_util.Fault.config option;
    text : string;
  }

  val to_json : t -> Faerie_util.Json.t
  (** One record object, printed as one NDJSON line. *)

  val of_json : string -> (t, string) result
  (** Rejects lines whose ["kind"] is not ["slowlog"] — including
      quarantine records, which have no ["kind"] — with a descriptive
      error, so replay dispatch can fall through. *)
end

(** {1 Structured outcome codec}

    Lossless JSON round-trip of {!Parallel.outcome} for cluster frames:
    unlike the display strings in the client protocol, every error and
    degradation variant is tagged, and scores distinguish
    [Similarity]/[Distance] (as [{"s":f}] / [{"d":n}]). The [_of_json]
    side returns [None] on any malformed value — the coordinator treats
    that as a shard failure, never a crash. *)

val match_to_json : Types.char_match -> Faerie_util.Json.t

val match_of_json : Faerie_util.Json.t -> Types.char_match option

val error_to_json : Outcome.error -> Faerie_util.Json.t

val error_of_json : Faerie_util.Json.t -> Outcome.error option

val degradation_to_json : Outcome.degradation -> Faerie_util.Json.t

val degradation_of_json : Faerie_util.Json.t -> Outcome.degradation option

val outcome_to_json : Parallel.outcome -> Faerie_util.Json.t

val outcome_of_json : Faerie_util.Json.t -> Parallel.outcome option

(** {1 Length-prefixed frames}

    Transport for coordinator <-> shard pipes: a 4-byte big-endian length
    header followed by that many payload bytes. Writes emit the whole
    frame through blocking [write(2)] with [EINTR] retry; reads are
    incremental — a {!Frame.reader} buffers partial arrivals across calls,
    so a frame split by pipe scheduling is reassembled and a frame is
    delivered either whole or not at all (a shard killed mid-write yields
    [`Eof] at the torn boundary, never a half-frame). *)

module Frame : sig
  val max_len : int
  (** Refuse frames over 64 MiB: a corrupt header must not allocate
      unbounded memory. *)

  val write : Unix.file_descr -> string -> unit
  (** Write one frame. @raise Invalid_argument over {!max_len}.
      @raise Unix.Unix_error as [write(2)] does (e.g. [EPIPE]). *)

  type reader

  val reader : Unix.file_descr -> reader

  val reader_fd : reader -> Unix.file_descr
  (** For [select]-based readiness polling across several readers. *)

  val read :
    ?deadline_ns:int64 ->
    reader ->
    [ `Frame of string | `Eof | `Timeout | `Corrupt of string ]
  (** Next complete frame. Blocks until a frame, end-of-stream, or the
      absolute [deadline_ns] (monotonic, {!Faerie_obs.Trace.now_ns} base);
      without a deadline it blocks indefinitely. [`Timeout] leaves any
      partial frame buffered for a later call. [`Corrupt] reports an
      implausible length header (desynchronized stream). *)
end

(** {1 Coordinator <-> shard messages}

    JSON payloads carried inside {!Frame}s. Every frame embeds ["v"]
    ({!version}) and decoding rejects a mismatch as
    [Version_mismatch] — a structured refusal, not a parse failure. *)

module Shard : sig
  type msg =
    | Doc of {
        doc : int;
        attempt : int;
        timeout_ms : int option;
        text : string;
        trace : (int * int) option;
            (** [(trace id, absolute depth)] the shard's span subtree
                records under via {!Faerie_obs.Trace.with_context};
                [None] (field absent on the wire) when tracing is off, so
                doc frames are byte-identical to the untraced protocol *)
      }
        (** extract [text]; [attempt] re-keys the fault context so a
            coordinator retry does not deterministically re-fire the fault
            that killed the previous attempt *)
    | Prepare of { gen : int; path : string }
        (** phase 1 of reload: load the generation-[gen] snapshot at
            [path], hold it pending, do not serve from it yet *)
    | Commit of { gen : int }  (** phase 2: swap the pending snapshot in *)
    | Abort of { gen : int }  (** drop the pending snapshot *)
    | Dict_add of { raw : string }
        (** apply one dictionary add to the shard's delta overlay;
            answered with {!reply.Mutated} *)
    | Dict_remove of { raw : string }
    | Stats_req
        (** pull the shard's full metrics snapshot; answered with
            {!reply.Stats_reply} *)
    | Shutdown

  type reply =
    | Ready of { shard : int; gen : int; now_ns : int64 }
        (** sent once at startup; [now_ns] is the shard clock at send
            time, which the coordinator subtracts from its own receive
            time to estimate a per-shard clock offset for trace
            re-basing *)
    | Result of {
        doc : int;
        gen : int;
        outcome : Parallel.outcome;
        spans : Faerie_obs.Trace.span list;
            (** the shard-side span subtree of this document's trace
                (empty — field absent — when tracing is off) *)
        stages : (string * float) list;
            (** per-stage wall breakdown [(name, ns)] from the shard's
                slowlog stage brackets (empty — field absent — when stage
                timing is off) *)
      }
    | Prepared of { gen : int }
    | Prepare_failed of { gen : int; error : string }
    | Committed of { gen : int }
    | Aborted of { gen : int }
    | Refused of { error : string }
        (** structured protocol-level rejection (version mismatch,
            commit without prepare); the coordinator treats it as a shard
            fault *)
    | Mutated of { gen : int; entity : int; applied : bool }
        (** outcome of a [Dict_add]/[Dict_remove]: [entity] is the
            {e shard-local} id the mutation resolved to (-1 when none,
            e.g. removing an absent raw) — the coordinator owns the
            local→global id mapping; [applied] is false for idempotent
            no-ops *)
    | Stats_reply of { shard : int; snapshot : Faerie_obs.Metrics.snapshot }
    | Bye of { restarts : int; quarantined : int }
        (** final stats on clean shutdown: worker-domain restarts and
            quarantined documents inside this shard's pool *)

  val msg_to_string : msg -> string

  val msg_of_string : string -> (msg, parse_error) result

  val reply_to_string : reply -> string

  val reply_of_string : string -> (reply, parse_error) result
end
