(** Machine-readable performance snapshots.

    Two pieces: percentile estimation over {!Metrics.histogram_snapshot},
    and the [faerie-bench-v2] snapshot schema written by [bench --json]
    and compared by [faerie_cli regress], encoded with {!Json}. *)

val quantile : Metrics.histogram_snapshot -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) of the
    observations recorded in [h] by walking the cumulative bucket counts
    and interpolating linearly inside the bucket holding the target rank
    (the first bucket interpolates from [0.], the overflow bucket reports
    its lower bound — the histogram carries no upper limit there).
    Returns [nan] when the histogram is empty.
    @raise Invalid_argument if [q] is outside [0., 1.]. *)

(** {1 Bench snapshots (schema [faerie-bench-v2])} *)

type gc = {
  minor_words : float;  (** [gc_minor_words] counter *)
  promoted_words : float;  (** [gc_promoted_words] *)
  major_collections : int;  (** [gc_major_collections] *)
  top_heap_bytes : int;  (** [gc_top_heap_bytes] max gauge *)
  words_per_token : float;  (** total allocated words / [tokenize_tokens] *)
}
(** GC telemetry for one exhibit, present only when [Prof] was enabled
    during it (serialized as ["gc":null] otherwise). *)

type exhibit = {
  ex_name : string;
  wall_s : float;  (** wall time for the whole exhibit *)
  tokens : int;  (** [tokenize_tokens] counter *)
  tokens_per_s : float;
  candidates : int;  (** [candidates_generated] *)
  pruned : int;  (** [entities_pruned_lazy] + [buckets_pruned] *)
  verify_calls : int;  (** [verify_calls] *)
  matches : int;  (** [matches_verified] *)
  p50_ns : float;  (** per-document wall-time percentiles from the *)
  p90_ns : float;  (** [doc_wall_ns] histogram; [nan] (serialized as *)
  p99_ns : float;  (** [null]) when no document timings were recorded *)
  a50_w : float;  (** per-document allocated-words percentiles from the *)
  a90_w : float;  (** [doc_alloc_words] histogram; [nan]/[null] when *)
  a99_w : float;  (** profiling was off *)
  gc : gc option;
}

type bench = {
  schema : string;  (** ["faerie-bench-v2"] *)
  git_rev : string;
  scale : float;  (** [FAERIE_SCALE] in effect *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  exhibits : exhibit list;
}

val schema_version : string
(** ["faerie-bench-v2"], the schema written by {!bench_to_json}. *)

val exhibit_of_snapshot :
  name:string -> wall_s:float -> Metrics.snapshot -> exhibit
(** Pull the exhibit counters and [doc_wall_ns] percentiles out of a
    metrics snapshot taken at the end of the exhibit (reset the registry
    before the exhibit so the counts are per-exhibit). *)

val bench_to_json : bench -> string
(** Pretty-ish (one exhibit per line) rendering of the v2 schema:
    {v
    {"schema":"faerie-bench-v2","git_rev":R,"scale":N,"ocaml":V,"exhibits":[
    {"name":...,"wall_s":...,"tokens":...,"tokens_per_s":...,"candidates":...,
     "pruned":...,"verify_calls":...,"matches":...,
     "doc_wall_ns":{"p50":...,"p90":...,"p99":...},
     "alloc_per_doc":{"p50":...,"p90":...,"p99":...},
     "gc":{"minor_words":...,"promoted_words":...,"major_collections":...,
           "top_heap_bytes":...,"words_per_token":...}|null},
    ...]}
    v} *)

val bench_of_json : string -> (bench, string) result
(** Inverse of {!bench_to_json} (accepts any field order); rejects any
    schema but {!schema_version}. *)

(** {1 Regression comparison} *)

type verdict = {
  v_name : string;
  baseline_s : float;
  current_s : float;
  ratio : float;  (** [current_s /. baseline_s]; [infinity] on a 0 baseline *)
  regressed : bool;  (** [ratio > max_ratio] *)
  alloc_ratio : float option;
      (** minor-words ratio; [None] when either side lacks a gc block
          (except: baseline has one, current doesn't, and the alloc gate
          is on — then [Some infinity]) *)
  alloc_regressed : bool;  (** only ever [true] when the alloc gate is on *)
}

type comparison = {
  verdicts : verdict list;  (** exhibits present in both snapshots *)
  missing : string list;  (** baseline exhibits absent from current *)
  any_regressed : bool;
      (** some verdict regressed (wall or alloc), or some exhibit missing *)
}

val compare_benches :
  ?max_ratio:float ->
  ?max_alloc_ratio:float ->
  baseline:bench ->
  current:bench ->
  unit ->
  comparison
(** Per-exhibit wall-time ratio check; [max_ratio] defaults to [1.5].
    Exhibits only in [current] are ignored (new exhibits are not
    regressions); exhibits only in [baseline] are reported missing and
    count as a regression. [max_alloc_ratio] additionally gates the
    minor-words allocation ratio: a no-gc {e baseline} exempts the
    exhibit (nothing to compare against), but a baseline {e with} gc data
    and a current without it fails — the profiling went dark. *)

val render_comparison :
  max_ratio:float -> ?max_alloc_ratio:float -> comparison -> string
(** Human table: one line per verdict plus a final PASS/REGRESSED line. *)
