(** Service-level objectives and error-budget burn rate.

    [faerie serve --slo p99=50ms,avail=99.9] declares a latency and/or
    availability objective; each stats tick assesses the {e window}
    since the previous assessment from the delta of two merged metric
    snapshots, so the numbers describe recent behaviour, not the whole
    run.

    Burn rate is the standard error-budget form: the objective admits a
    bad-event budget of [1 - target] per unit of traffic, and burn is
    the observed bad fraction divided by that budget — a burn over 1.0
    means the objective will be violated if the window's behaviour
    persists, and degrades [{"op":"health"}] status to ["slo_burn"].
    Latency counts a document over the threshold as bad (budget [1 - q]
    for a [q]-quantile objective, bad fraction interpolated from the
    [doc_wall_ns] buckets); availability counts failed and shed
    documents against [docs_processed + docs_shed]. *)

type objective = {
  latency : (float * float) option;
      (** (quantile in (0,1), threshold in ns) *)
  avail : float option;  (** target fraction in (0,1) *)
}

val none : objective

val is_empty : objective -> bool

val parse : string -> (objective, string) result
(** Parse a [--slo] spec: comma-separated [pNN=DUR] (e.g. [p99=50ms],
    [p99.9=2s]; bare numbers are ms) and [avail=PCT] (e.g. [avail=99.9],
    or a fraction [avail=0.999]) items. *)

val to_string : objective -> string

type assessment = {
  window_s : float;  (** wall span of the assessed window, 0 on first *)
  docs : int;  (** documents in the window (processed + shed) *)
  latency_q : float option;
  latency_target_ms : float option;
  latency_measured_ms : float option;
      (** the objective quantile measured over the window *)
  latency_bad_frac : float option;  (** fraction over the threshold *)
  burn_latency : float option;
  avail_target : float option;
  avail_measured : float option;
  burn_avail : float option;
  burning : bool;  (** some burn rate exceeds 1.0 *)
}

type tracker
(** Remembers the previous snapshot and its wall time; owned by the
    serve loop. *)

val tracker : unit -> tracker

val assess : ?now_s:float -> tracker -> objective -> Metrics.snapshot -> assessment
(** Assess the window between the tracker's previous snapshot and
    [snap], then advance the tracker. The first assessment windows from
    process start (an empty previous snapshot). [now_s] injects a clock
    for tests. Counter deltas clamp to the current reading if a value
    shrank (a shard restarted and re-counted). *)

val fraction_le : Metrics.histogram_snapshot -> float -> float
(** Fraction of observations at or below [x], linearly interpolated
    inside the bucket containing [x] (the dual of [Perf.quantile]);
    [nan] on an empty histogram. *)

val to_json : assessment -> Json.t
(** One JSON object:
    [{"window_s":..,"docs":..,"latency":{"q":..,"target_ms":..,
    "measured_ms":..,"bad_frac":..,"burn":..},"avail":{"target":..,
    "measured":..,"burn":..},"burning":..}] — absent (and non-finite)
    measurements render as [null]. *)

val render : assessment -> string
(** One human line for the stderr summary. *)
