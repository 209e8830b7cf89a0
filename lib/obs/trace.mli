(** Named, nested trace spans with an injectable monotonic clock.

    Tracing is off by default: a disabled {!with_span} is one atomic load
    plus the call to the wrapped function. When enabled, each completed
    span is recorded into a per-domain buffer (no locks on the hot path)
    and {!drain} collects, clears and time-orders all buffers.

    A span is recorded when it {e closes} — including closure by exception
    ([ok = false]), so a fault injected deep in the pipeline still leaves a
    complete, properly nested span tree behind (asserted by [test_obs]).

    The clock is process-wide and injectable ({!set_clock}); tests and the
    fault/fuzz harness install a deterministic counter so span timings (and
    anything else derived from {!now_ns}, e.g. report timings) reproduce
    exactly. *)

val now_ns : unit -> int64
(** Current time in nanoseconds from the installed clock (default: the
    system clock scaled to ns). Monotonicity is the clock's contract. *)

val set_clock : (unit -> int64) option -> unit
(** [set_clock (Some f)] installs [f] as the clock; [set_clock None]
    restores the default system clock. *)

val enable : unit -> unit

val disable : unit -> unit
(** Stop recording. Buffered spans are kept until {!drain} or {!reset}. *)

val enabled : unit -> bool

val set_selective : bool -> unit
(** Selective (head-sampling) mode: while set, only spans recorded
    inside some {!with_context} (trace id [<> 0]) are kept — requests
    that were not sampled leave nothing behind. Orthogonal to
    {!enable}; off by default. *)

val is_selective : unit -> bool

type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;  (** nesting depth within the recording domain, 0 = root *)
  domain : int;  (** numeric id of the recording domain *)
  trace : int;  (** request-scoped trace id set by {!with_context}, 0 = none *)
  ok : bool;  (** [false] when the span closed by exception *)
  attrs : (string * string) list;
}

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the function inside a span. Always re-raises; never swallows. *)

val with_context : trace:int -> depth:int -> (unit -> 'a) -> 'a
(** Run the function with this domain's trace id set to [trace] and its
    nesting base set to [depth]: spans recorded inside are tagged with
    [trace] and nest at absolute depths [>= depth]. This is how a shard
    process records its subtree at the depth the coordinator's enclosing
    request span dictates, so the reassembled cross-process tree is one
    properly nested stack. Restores the previous context on exit (also on
    exception); a no-op wrapper while tracing is disabled. *)

val current_depth : unit -> int
(** This domain's current nesting depth — the depth the next {!with_span}
    would record at. [0] while tracing is disabled. *)

val current_trace : unit -> int
(** This domain's current trace id ({!with_context}); [0] outside any
    context or while tracing is disabled. *)

val graft : ?offset_ns:int64 -> ?lo_ns:int64 -> span list -> unit
(** Adopt spans recorded in another process into this domain's buffer.
    [offset_ns] (default [0L]) is added to every [start_ns] to re-base the
    peer's clock onto ours. Residual skew is then absorbed by uniform
    shifts of the whole subtree: it is pulled back so it ends no later
    than {!now_ns} at the call (adopted spans are completed work — an
    offset measured late must not push them past the close of the
    enclosing request span), and if [lo_ns] is given the subtree is
    finally shifted to start no earlier than it (a child must not escape
    the request span's start either). Spans keep their absolute depths
    and are re-domained to the calling domain. No-op while tracing is
    disabled. *)

val drain : unit -> span list
(** All completed spans from every domain, cleared from the buffers,
    sorted by (start_ns, depth, name). *)

val drain_trace : int -> span list
(** Remove and return only the spans tagged with this trace id, sorted
    like {!drain}; every other buffered span stays. Safe while other
    requests are in flight on sibling domains (a request's completion
    callback collects its own subtree without stealing theirs). *)

val reset : unit -> unit
(** Drop buffered spans (keeps the enabled state and clock). *)

val span_to_json : span -> Json.t
(** One span, as the JSONL export writes it and shard frames carry it
    (schema locked by [test_obs]):
    {v
    {"name":N,"start_ns":S,"dur_ns":D,"depth":P,"domain":I,"trace":T,"ok":B,"attrs":{...}}
    v}
    The nanosecond fields are {!Json.Int}s, so a wall-clock timestamp
    prints digit for digit. *)

val span_of_json : Json.t -> span option
(** Inverse of {!span_to_json}; [None] on any malformed field. *)

val to_jsonl : span list -> string
(** One {!span_to_json} object per line. *)
