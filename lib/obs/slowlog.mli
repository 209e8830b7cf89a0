(** Slow-query capture for the serve path.

    Armed by [faerie serve --slow-ms T] / [--slowlog FILE]: keeps a
    bounded ring of the K slowest requests seen so far and writes every
    request over the threshold through to an NDJSON sink immediately
    (one whole {!Append_log} line each, like the [Supervisor.Quarantine]
    sink). Records are {!Json.t} values: the serve layer owns the record
    schema, this module owns retention and the sink.

    When armed, [Prof.with_stage] brackets also feed per-stage wall time
    into a per-domain scratch ({!doc_begin} / {!note_stage} /
    {!doc_end}), so the stage breakdown of a slow request is available
    even when the request was not sampled for tracing. Disarmed, every
    hook is one atomic load and allocates nothing ({!captures} proves
    it, mirroring [Prof.captures]). *)

val configure : ?capacity:int -> ?slow_ms:float -> ?path:string -> unit -> unit
(** Arm full capture. [capacity] (default 8) bounds the top-K ring;
    requests with wall time [>= slow_ms] are written through to [path]
    immediately, the rest of the ring is flushed at {!disarm}. Omitting
    [slow_ms] keeps ring-only capture (flush on disarm); omitting
    [path] keeps records in memory for the [{"op":"slowlog"}] admin
    op. Re-arming disarms (and flushes) the previous configuration. *)

val arm_stages : unit -> unit
(** Arm only the per-domain stage scratch — shard-process mode: the
    coordinator owns the ring, the shard measures stage breakdowns and
    ships them in Result frames. {!should_capture} is always [false]. *)

val disarm : unit -> unit
(** Flush unwritten ring entries to the sink, close it, clear state. *)

val armed : unit -> bool

val stage_armed : unit -> bool
(** Alias of {!armed}: guard used by [Prof.with_stage] (one atomic
    load on the disabled path). *)

val slow_ns : unit -> float
(** Write-through threshold in ns; [infinity] when none (ring-only). *)

(** {1 Per-domain stage scratch} — called on the extraction domain. *)

val doc_begin : unit -> unit
(** Zero this domain's scratch at the start of a document run. *)

val note_stage : int -> float -> unit
(** [note_stage i dt_ns] adds [dt_ns] to stage [i] (Prof stage index). *)

val doc_end : wall_ns:float -> trace:int -> unit
(** Seal the scratch with the document's wall time and trace id. *)

type doc = { wall_ns : float; trace : int; stages_ns : float array }

val last_doc : unit -> doc option
(** The sealed scratch of the last document run on this domain ([None]
    before any {!doc_end}). Read from the completion callback, which
    the supervisor runs on the same worker domain as the extraction. *)

val stage_clock : unit -> float
(** [Trace.now_ns] as a float — the clock the stage brackets use, so
    injected test clocks drive slowlog timings too. *)

val n_stages : int

val stage_name : int -> string
(** Prof stage names: tokenize, heap_merge, windows, verify. *)

val stages : doc -> (string * float) list
(** [doc]'s per-stage wall ns, named, in stage order. *)

(** {1 Capture ring} — called on the serve layer. *)

val should_capture : wall_ns:float -> bool
(** Would a request with this wall time be retained? True when it
    crosses the threshold or beats the ring (or the ring has room).
    Lets the caller skip building the record for fast requests. *)

val capture : wall_ns:float -> Json.t -> unit
(** Retain a record. Over-threshold records are appended to the sink
    immediately as one NDJSON line; ring-only records are flushed at
    {!disarm}. *)

val drain : unit -> (float * Json.t) list
(** Current ring contents, slowest first, as [(wall_ns, record)]. Does
    not clear — the ring is a "K slowest so far" window, not a queue. *)

val total : unit -> int
(** Records captured since arming (including ones evicted since). *)

val flush : unit -> unit
(** Write ring entries that never crossed the threshold to the sink. *)

val captures : unit -> int
(** Armed-path activations since process start; stays at zero while
    disarmed (the [Prof.captures] guarantee). *)
