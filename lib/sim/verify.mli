(** Exact verification of candidate pairs (the "verify" half of
    filter-and-verify). *)

type verifier =
  | Banded  (** always the threshold-banded DP *)
  | Myers
      (** Myers bit-parallel, falling back to the banded DP when the
          shorter string exceeds {!Edit_distance.myers_max_len} *)
  | Auto  (** engine chosen per pair (today: same policy as [Myers]) *)

val verifier_name : verifier -> string
(** ["banded"], ["myers"] or ["auto"] — the names the CLI's [--verifier]
    flag and the Explain verifier event use. *)

val verifier_of_string : string -> verifier option
(** Inverse of {!verifier_name}. *)

module Score : sig
  type t =
    | Similarity of float  (** jaccard / cosine / dice / edit similarity *)
    | Distance of int  (** edit distance *)

  val passes : Sim.t -> t -> bool
  (** Does the measured score satisfy the threshold? Similarities compare
      with a [1e-9] tolerance so that exact rational ties (e.g. [delta = 1]
      with identical strings) always pass. *)

  val pp : Format.formatter -> t -> unit

  val compare : t -> t -> int
  (** Orders better scores first: higher similarity, lower distance. *)
end

val token_score : Sim.t -> e_tokens:int array -> s_tokens:int array -> Score.t
(** Exact token-based similarity of two sorted token multisets.
    Occurrences of {!Faerie_tokenize.Span.missing} in [s_tokens] count
    toward [|s|] but never toward the overlap.

    @raise Invalid_argument when applied to a character-based function. *)

val char_cap : Sim.t -> maxlen:int -> int
(** The largest edit distance that can still pass when the longer string
    has [maxlen] characters: [tau] for edit distance, [⌊(1 - delta) *
    maxlen⌋] (with a [1e-9] slack) for edit similarity. {!char_score}
    caps its computation here.

    @raise Invalid_argument when applied to a token-based function. *)

val char_score :
  ?verifier:verifier -> Sim.t -> e_str:string -> s_str:string -> Score.t
(** Exact character-based score, computed with a thresholded edit-distance
    engine capped at the largest distance that could still pass (a failing
    pair reports the cap + 1, enough to decide {!Score.passes}). The
    [verifier] (default [Auto]) picks the engine; the
    [verify_myers]/[verify_banded] counters record the routing.

    @raise Invalid_argument when applied to a token-based function. *)

val char_score_slice :
  ?verifier:verifier ->
  Sim.t ->
  e_str:string ->
  text:string ->
  off:int ->
  len:int ->
  Score.t
(** As {!char_score} against the document slice [text[off .. off+len)],
    without materializing the substring — the allocation-free form the
    verify hot path uses. *)

val check :
  ?verifier:verifier ->
  Sim.t ->
  e_tokens:int array ->
  e_str:string ->
  s_tokens:int array ->
  s_str:string ->
  Score.t
(** Dispatch on the function kind. *)
