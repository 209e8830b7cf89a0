(** Inverted index over the dictionary (Section 3.1): token id → ascending
    list of ids of entities containing that token. An entity appears once
    per *distinct* token it contains; document-side multiplicity is carried
    by token positions, so heap occurrence counts upper-bound the multiset
    overlap (safe for filtering).

    Posting lists are stored delta+varint-compressed in one shared byte
    blob and decoded on demand — either through the {!Postings} cursor or,
    on the hot path, into a reusable flat buffer via {!decode_document}. *)

type t

(** A read-only cursor over one compressed posting block. Entity ids come
    out in ascending order; no intermediate list is materialized. *)
module Postings : sig
  type t

  val length : t -> int
  (** Posting count, O(1). *)

  val is_empty : t -> bool

  val iter : (int -> unit) -> t -> unit
  (** Apply to each entity id in ascending order, decoding in place. *)

  val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

  val to_array : t -> int array
  (** Fresh decoded array — for tests and cold paths only. *)
end

val build : Dictionary.t -> t
(** Lists come out sorted for free because entities are scanned in id
    order, then each list is delta+varint encoded. *)

val of_blocks :
  Dictionary.t -> blob:string -> offs:int array -> counts:int array -> t
(** Adopt already-encoded blocks (the codec's load path): token [i]'s block is
    [blob[offs.(i) .. offs.(i+1))] holding [counts.(i)] ids. The blocks must
    have been validated — decoding trusts them. *)

val of_overlay :
  t ->
  dictionary:Dictionary.t ->
  adds:int array array ->
  dead:Bytes.t ->
  dead_counts:int array ->
  t
(** [of_overlay base ~dictionary ~adds ~dead ~dead_counts] is a merged
    read-only view of [base] plus a mutation overlay (built by
    {!Delta}): per-token ascending arrays of added entity ids (all
    numbered past the base id space, so merged lists stay ascending by
    construction), a tombstone bitset over entity ids, and the per-block
    tombstone tally. [dictionary] must cover both base and added
    entities; [adds] must span at least the base token space (it may be
    wider when added entities introduced new tokens). {!Extractor.run}
    and every cursor work on the view unchanged.

    @raise Invalid_argument if [base] is itself an overlay view or the
    overlay shapes disagree with [base]. *)

val is_overlay : t -> bool

val entity_live : t -> int -> bool
(** False exactly for tombstoned ids of an overlay view (always true on
    a frozen index). {!Faerie_core.Problem} consults this so removed
    entities vanish from the heap {e and} fallback paths. *)

val raw_blocks : t -> string * int array * int array
(** [(blob, offs, counts)] — the stored representation, for {!Codec}.

    @raise Invalid_argument on an overlay view: the merged form has no
    stored representation until the delta is compacted into a fresh
    snapshot. *)

val dictionary : t -> Dictionary.t

val n_tokens : t -> int
(** Number of token slots (interner size at build). *)

val postings : t -> int -> Postings.t
(** [postings t token] is a cursor over the inverted list of a token id;
    the empty cursor for {!Faerie_tokenize.Span.missing} or any token
    without postings. *)

val n_postings : t -> int
(** Total posting count over all lists. *)

val n_lists : t -> int
(** Number of non-empty lists. *)

val heap_bytes : t -> int
(** Estimated resident size: compressed blob + block directory + the share
    of the interner holding the token strings (what Table 5 reports as
    "Inverted Index"). *)

(** Reusable scratch for {!decode_document}: a flat entity-id buffer plus
    per-token memo tables, grown on demand and reused across documents so
    the steady-state hot path allocates nothing. *)
module Workspace : sig
  type t

  val create : unit -> t
end

val decode_document :
  t -> Workspace.t -> Faerie_tokenize.Document.t -> int array * int array * int array
(** [decode_document t ws doc] decodes the posting block of every token in
    [doc] into [ws]'s flat buffer, memoizing per distinct token (each block
    is decoded once per call even if the token repeats). Returns
    [(buf, offs, lens)]: document position [i]'s postings are
    [buf[offs.(i) .. offs.(i) + lens.(i))], ascending. The arrays are owned
    by [ws] and invalidated by the next call. *)
