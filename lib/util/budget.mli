(** Per-document processing budgets: wall-clock deadline, input bytes and
    candidate count.

    Extraction over adversarial or pathological documents can blow up
    (quadratic candidate enumeration, huge inputs); a budget bounds the
    damage. A {!spec} describes the limits; {!start} arms a budget (the
    deadline clock starts ticking) for one document. The hot loop charges
    candidates with {!charge_candidates} (a decrement and branch) and polls
    the deadline with {!tick}, which reads the real clock only once every
    256 calls, so checks are cheap enough for inner loops. Tripping a limit
    raises {!Exhausted}; the pipeline catches it and degrades gracefully —
    partial results flagged, never silently dropped
    ({!Faerie_core.Parallel}). *)

type exhaustion = Deadline | Bytes | Candidates

val exhaustion_to_string : exhaustion -> string

exception Exhausted of exhaustion

type spec = {
  timeout_ms : int option;  (** wall-clock budget per document *)
  max_bytes : int option;  (** document size over which to degrade *)
  max_candidates : int option;  (** filter-phase candidate cap *)
}

val spec_unlimited : spec

val is_spec_unlimited : spec -> bool

val spec_to_json : spec -> Json.t
(** [{"timeout_ms":..,"max_bytes":..,"max_candidates":..}], [null] for
    an absent limit — the ["budget"] object of repro records. *)

val spec_of_json : Json.t -> spec
(** Inverse of {!spec_to_json}; a missing or malformed limit is absent. *)

val deadline_ns : spec -> now_ns:int64 -> int64 option
(** [deadline_ns spec ~now_ns] is the absolute admission deadline
    [now_ns + timeout_ms] (in nanoseconds), or [None] when the spec has no
    timeout. Admission control ({!Faerie_core.Supervisor}) stamps this at
    enqueue time so a document that outlives its own deadline while
    {e waiting} can be shed without ever being started. *)

type t

val unlimited : t
(** Never trips; every charge/tick is a single branch. *)

val start : spec -> t
(** Arm a budget: the deadline (if any) is [now + timeout_ms]. *)

val is_unlimited : t -> bool

val charge_bytes : t -> int -> unit
(** @raise Exhausted [Bytes] once the running total exceeds [max_bytes]. *)

val charge_candidates : t -> int -> unit
(** @raise Exhausted [Candidates] once the total exceeds [max_candidates]. *)

val tick : t -> unit
(** Amortized deadline poll (real clock read every 256 ticks).

    @raise Exhausted [Deadline] past the deadline. *)

val check_deadline : t -> unit
(** Immediate deadline poll. @raise Exhausted [Deadline] past it. *)

val exhausted : t -> exhaustion option
(** Which limit tripped, if any (sticky once raised). *)
