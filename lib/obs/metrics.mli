(** Process-wide, domain-safe metrics registry.

    Three metric kinds — monotonic {e counters}, {e gauges} and fixed-bucket
    {e histograms} — live in a registry. Writes go to a per-domain {e shard}
    (plain mutable arrays reached through domain-local storage), so the hot
    path takes no lock and performs no atomic read-modify-write; a snapshot
    merges every shard under the registry lock. Merge semantics: counters
    and histogram cells sum across shards; gauges merge according to their
    [agg] mode — [`Sum] gauges sum (treat the gauge as each domain's
    contribution to a total, and set it from one domain when you mean an
    absolute value), [`Max] gauges take the maximum across shards
    (high-water marks such as heap watermarks).

    Metric handles are cheap value records; register them once at module
    initialization ([let m = Metrics.counter "name"]) and use them from any
    domain. Registering the same name twice returns the same metric (the
    kinds must agree).

    Snapshots export as JSON-lines ({!to_jsonl}, one object per metric),
    as one display object ({!snapshot_json}), as a full-fidelity wire
    object ({!snapshot_to_wire}) and as Prometheus text
    ({!to_prometheus}). All list metrics in registration order, so output
    is deterministic for a given binary. Numbers follow
    {!Json.float_text}, in Prometheus text too.

    The [default] registry is the one all library instrumentation writes
    to; {!create} builds private registries for tests. *)

type registry

val default : registry
(** The process-wide registry used by all Faerie instrumentation. *)

val create : unit -> registry
(** A fresh, empty, independent registry (for tests). *)

type counter

type gauge

type histogram

val counter : ?registry:registry -> ?help:string -> string -> counter
(** Register (or look up) a monotonic counter.
    @raise Invalid_argument if [name] exists with a different kind. *)

val gauge :
  ?registry:registry -> ?help:string -> ?agg:[ `Sum | `Max ] -> string -> gauge
(** Register (or look up) a gauge. [agg] picks the cross-shard merge used
    by {!snapshot}: [`Sum] (default) adds the per-domain cells, [`Max]
    keeps the largest. Re-registration must agree on [agg].
    @raise Invalid_argument if [name] exists with a different kind/agg. *)

val labeled_gauge :
  ?registry:registry ->
  ?help:string ->
  ?agg:[ `Sum | `Max ] ->
  label:string * string * string ->
  string ->
  gauge
(** Register (or look up) a gauge that exports as the labeled Prometheus
    series [family{key="value"}] given [label = (family, key, value)]
    — the general form behind {!indexed_gauge}[ ~label], for info-style
    series whose label is not a small integer (e.g. [build_info]'s git
    revision). Identity, JSONL export and lookups stay on [name].
    @raise Invalid_argument on a label mismatch with a prior
    registration. *)

val indexed_gauge :
  ?registry:registry ->
  ?help:string ->
  ?agg:[ `Sum | `Max ] ->
  ?label:string ->
  string ->
  int ->
  gauge
(** [indexed_gauge name i] registers (or looks up) the gauge ["name_i"] —
    one instance of a per-member family such as a cluster's per-shard
    ["shard_up_0"], ["shard_up_1"], … gauges. Same semantics and
    constraints as {!gauge} applied to the composed name.

    [~label:key] records the member as the labeled series
    [name{key="i"}]: the Prometheus export renders the family once with
    one labeled sample per member instead of name-suffixed series (the
    JSONL export and all lookups keep using the composed ["name_i"]).
    Re-registration must agree on the label.
    @raise Invalid_argument on a label mismatch with a prior registration. *)

val histogram :
  ?registry:registry -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are the ascending upper bounds of the histogram cells; an
    implicit overflow cell captures observations above the last bound.
    Default: decades from [1.] to [1e9].
    @raise Invalid_argument on an empty or non-ascending [buckets], or if
    [name] exists with a different kind or bucket layout. *)

val add : counter -> int -> unit
(** Lock-free (per-domain shard) add. Negative deltas are rejected with
    [Invalid_argument]: counters are monotonic. *)

val incr : counter -> unit

val set : gauge -> float -> unit

val add_gauge : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Raise this domain's cell to at least the given value. On a [`Max]
    gauge this records a process-wide high-water mark once shards merge. *)

val observe : histogram -> float -> unit

val observe_ex : histogram -> float -> trace:int -> unit
(** {!observe}, additionally retaining [(trace, value)] as the target
    bucket's {e exemplar} when it beats the incumbent (larger value
    wins; value ties break toward the larger trace id, so the choice is
    deterministic in any observation order). [trace = 0] records no
    exemplar. A separate entry point — not an optional argument on
    {!observe} — so the untraced hot path stays allocation-free. *)

val with_suppressed : ?registry:registry -> (unit -> 'a) -> 'a
(** Run [f] with this domain's writes to the registry discarded (they land
    in a scratch shard that no snapshot reads). Nests; affects only the
    calling domain. *)

(** {1 Snapshots and export} *)

type histogram_snapshot = {
  upper : float array;  (** bucket upper bounds, ascending *)
  counts : int array;  (** per-cell counts; length = [Array.length upper + 1],
                           the extra cell is the overflow bucket *)
  sum : float;  (** sum of all observed values *)
  count : int;  (** number of observations = sum of [counts] *)
  exemplars : (int * float) array;
      (** at most one [(trace, value)] exemplar per cell ([trace = 0] =
          none for that cell); [[||]] when the histogram never saw a
          traced observation. Merges take the larger value (ties toward
          the larger trace id). *)
}

type gauge_snapshot = {
  value : float;
  agg : [ `Sum | `Max ];  (** merge mode, for cross-snapshot merging *)
  label : (string * string * string) option;
      (** [(family, key, value)] for labeled {!indexed_gauge} members *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * gauge_snapshot) list;
  histograms : (string * histogram_snapshot) list;
}
(** All lists are in registration order. Snapshots are self-describing
    (gauges carry their [agg] and label), so they can be shipped across a
    process boundary and merged without access to the source registry. *)

val snapshot : ?registry:registry -> unit -> snapshot

val merge_snapshots : snapshot list -> snapshot
(** Merge snapshots with the same semantics {!snapshot} applies to
    per-domain shards, one level up: counters sum, gauges combine by their
    recorded [agg] ([`Sum] adds, [`Max] keeps the largest), histogram
    cells sum when bucket layouts agree (a mismatched layout keeps the
    first-seen cells). Metric lists in the result are sorted by name, so
    the merge is invariant under permutation of its inputs and under
    re-association (asserted by qcheck in [test_obs]). *)

val counter_value : snapshot -> string -> int
(** Value of a counter in a snapshot; [0] when not present. *)

val gauge_value : snapshot -> string -> float
(** Value of a gauge in a snapshot; [0.] when not present. *)

val render_jsonl : snapshot -> string
(** Render an arbitrary snapshot (e.g. a {!merge_snapshots} result) in the
    {!to_jsonl} schema. *)

val snapshot_json : snapshot -> Json.t
(** The display form, the locked schema of the admin plane and the serve
    summary ([jq '.metrics.counters.X'] works on it):
    {v
    {"counters":{N:V,...},"gauges":{N:V,...},
     "histograms":{N:{"upper":[...],"counts":[...],"sum":S,"count":C},...}}
    v}
    A histogram with traced observations adds
    ["exemplars":[{"i":BUCKET,"trace":T,"value":V},...]], as the
    {!to_jsonl} line does. *)

val snapshot_to_wire : snapshot -> Json.t
(** The full-fidelity form shard frames carry: gauges keep their agg
    mode and Prometheus label, histograms every exemplar cell, so a
    coordinator can {!merge_snapshots} shard snapshots without access to
    the shards' registries. *)

val snapshot_of_wire : Json.t -> snapshot option
(** Inverse of {!snapshot_to_wire}; [None] on any malformed part. *)

val render_prometheus : ?registry:registry -> snapshot -> string
(** Render an arbitrary snapshot in the {!to_prometheus} format. [registry]
    (default: {!default}) supplies [# HELP] text for the names it knows;
    unknown names render without a HELP line. *)

val to_jsonl : ?registry:registry -> unit -> string
(** One JSON object per line, schema (locked by [test_obs]):
    {v
    {"type":"counter","name":N,"value":V}
    {"type":"gauge","name":N,"value":V}
    {"type":"histogram","name":N,"upper":[...],"counts":[...],"sum":S,"count":C}
    v} *)

val to_prometheus : ?registry:registry -> unit -> string
(** Prometheus text exposition format ([# HELP] / [# TYPE] comments,
    cumulative [_bucket{le="..."}] cells for histograms; labeled
    {!indexed_gauge} members as [family{key="value"}] samples; bucket
    exemplars as OpenMetrics [# {trace_id="..."} value] suffixes). *)

val reset : ?registry:registry -> unit -> unit
(** Zero every metric in every shard (registrations are kept). *)
