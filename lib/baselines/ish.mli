(** ISH — inverted signature hashtable (after Chakrabarti, Chaudhuri,
    Ganti, Xin, SIGMOD 2008), the paper's competitor for jaccard and edit
    similarity (Fig. 16b/c).

    Reimplementation of the signature-filter idea (see DESIGN.md): each
    entity selects a signature — the smallest set of its rarest distinct
    tokens such that the total multiplicity of the unselected tokens is
    below the lazy overlap threshold [Tl]. Any substring matching the
    entity must then contain a signature token. Extraction probes every
    document token against the signature lists and verifies each spawned
    valid substring individually — per-substring membership checking with
    no computation shared across overlapping substrings, which is precisely
    the axis on which Faerie wins.

    Entities on the fallback path (vacuous filter) are handled by the same
    {!Faerie_core.Fallback.run} Faerie uses, so results always equal
    Faerie's. *)

type t

val build : Faerie_core.Problem.t -> t
(** Derive signatures from an existing problem (reuses its tokenization and
    thresholds; the problem's inverted index is {e not} used). *)

val extract :
  t -> Faerie_tokenize.Document.t -> Faerie_core.Types.char_match list
(** Matches in character coordinates, sorted, deduplicated. The document
    must have been tokenized by the problem's dictionary
    ({!Faerie_core.Problem.tokenize_document}). *)

val candidates_checked : t -> int
(** Number of (substring, entity) verifications performed by all
    [extract] calls so far — the baseline's cost driver. *)

val index_bytes : t -> int
(** Estimated resident size of the signature lists. *)

val signature : t -> int -> int array
(** The signature token ids of one entity (sorted); exposed for tests. *)
