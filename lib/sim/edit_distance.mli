(** Levenshtein edit distance: full DP, a Myers bit-parallel verifier for
    thresholded queries, a threshold-banded DP fallback, and the derived
    edit similarity. Used by the verify step and by the NGPP baseline. *)

val distance : string -> string -> int
(** Classic two-row dynamic program, O(|r| * |s|) time, O(min) space. *)

val myers_max_len : int
(** Longest pattern (shorter string of the pair) the bit-parallel engine
    handles in one machine word: 62 on a 63-bit OCaml int (one bit is
    reserved for the addition carry). Longer patterns fall back to the
    banded DP. *)

val within : string -> string -> int -> bool
(** [within r s tau] iff [distance r s <= tau]. Dispatches like
    {!distance_upto}. *)

val distance_upto : cap:int -> string -> string -> int option
(** [distance_upto ~cap r s] is [Some d] with [d = distance r s] when
    [d <= cap], [None] otherwise. Automatic engine choice: Myers
    bit-parallel, O(|longer|) word-ops, when the shorter string fits in
    {!myers_max_len}; banded DP otherwise. Neither engine allocates — both
    run on per-domain scratch buffers. *)

val distance_upto_banded : cap:int -> string -> string -> int option
(** As {!distance_upto}, forcing the banded DP that visits only the
    diagonal band of width [2*cap+1] and exits early when every band cell
    exceeds [cap]. O((|r|+|s|) * cap) time. *)

val distance_upto_myers : cap:int -> string -> string -> int option
(** As {!distance_upto}, preferring the Myers bit-vector engine (with the
    banded DP as fallback beyond {!myers_max_len}) — today identical to the
    automatic dispatch, named for callers that want the intent explicit. *)

val distance_upto_slice :
  cap:int -> banded:bool -> string -> s:string -> off:int -> len:int ->
  int option
(** [distance_upto_slice ~cap ~banded r ~s ~off ~len] is
    [distance_upto ~cap r (String.sub s off len)] without materializing the
    substring — the verify hot path scores document slices in place.
    [banded:true] forces the banded DP; [banded:false] uses the automatic
    engine choice. *)

val iter_search_ends :
  cap:int -> string -> text:string -> f:(int -> unit) -> unit
(** [iter_search_ends ~cap p ~text ~f] calls [f j], in increasing [j], for
    every end [j] in [\[1, |text|\]] such that some substring of [text]
    ending at [j] is within edit distance [cap] of [p]: the min over [i]
    of [distance p (String.sub text i (j - i))] is [<= cap]. One
    bit-parallel pass over [text] (Myers' search form: a match may start
    anywhere). The ends are collected in a fixed per-domain buffer and
    handed to [f] a buffer at a time, after the pass has cleared its bit
    table, so [f] may use this module's other engines, but not
    [iter_search_ends] itself.

    @raise Invalid_argument unless [1 <= |p| <= myers_max_len]. *)

val similarity : string -> string -> float
(** [1 - distance r s / max(len r, len s)]; by convention [1.0] when both
    strings are empty. *)
