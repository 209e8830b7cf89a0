(** Handling of entities the gram filter cannot cover.

    For edit distance / edit similarity, an entity shorter than [q] has no
    grams, and an entity whose lazy threshold [Tl] is non-positive can match
    a substring sharing zero grams with it. Filtering is vacuous in both
    cases, so for completeness such entities are checked by direct
    thresholded edit-distance verification of document substrings in the
    admissible character length range (derived from the threshold, not from
    gram counts):

    - edit distance [tau]: lengths in [\[len(e) - tau, len(e) + tau\]];
    - edit similarity [delta]: lengths in [\[⌈delta * len(e)⌉, ⌊len(e) / delta⌋\]].

    An entity of 1 to {!Faerie_sim.Edit_distance.myers_max_len} characters
    first takes one bit-parallel search pass over the document
    ({!Faerie_sim.Edit_distance.iter_search_ends}) at the largest cap any
    admissible length allows, and only the substrings ending at its hits
    are verified. Longer (or empty) entities verify every admissible
    substring.

    Token-based functions never take this path: an entity with at least one
    word token and [delta > 0] always has [Tl >= 1]. *)

val run :
  ?verifier:Faerie_sim.Verify.verifier ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  Types.char_match list
(** Verified matches (character coordinates, sorted and deduplicated) for
    every {!Problem.Fallback} entity. Empty when there are none.
    [verifier] picks the edit-distance engine of the per-substring checks
    (default [Auto]).

    The [fallback_verify_calls] counter grows by the number of admissible
    (start, len) pairs, whether or not the search pass let a pair reach
    the verifier. *)

val exhaustive :
  ?verifier:Faerie_sim.Verify.verifier ->
  Problem.t ->
  Faerie_tokenize.Document.t ->
  Types.char_match list
(** As {!run}, verifying every admissible substring of every entity: the
    reference the search pass is tested against. *)

val char_length_bounds : Faerie_sim.Sim.t -> e_chars:int -> int * int
(** The admissible substring character-length range; exposed for testing.

    @raise Invalid_argument for token-based functions. *)
