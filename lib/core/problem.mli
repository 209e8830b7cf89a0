(** An extraction problem: dictionary + inverted index + per-entity
    precomputed thresholds. Built once, reused across documents. *)

type path =
  | Indexed  (** normal filter path through the inverted index *)
  | Fallback
      (** the gram filter is vacuous for this entity ([Tl <= 0], or the
          entity is shorter than [q]); handled by direct verification over
          the valid substring range (see {!Fallback}) *)
  | Impossible  (** no substring can ever match (empty length range) *)

type entity_info = {
  e_len : int;  (** [|e|] in tokens/grams *)
  lower : int;  (** Lemma 2 lower bound on [|s|] *)
  upper : int;  (** Lemma 2 upper bound on [|s|] *)
  tl : int;  (** lazy-count threshold [Tl] *)
  gap : int;  (** bucket-count maximum in-bucket gap *)
  path : path;
}

type t

val create :
  sim:Faerie_sim.Sim.t ->
  ?q:int ->
  ?mode:Faerie_tokenize.Document.mode ->
  ?lazy_bound:[ `Exact | `Paper ] ->
  string list ->
  t
(** [create ~sim ?q ?mode entities] tokenizes and indexes the dictionary.
    By default the token mode is implied by [sim]: [q]-grams for edit
    distance/similarity (default [q = 2]), word tokens otherwise. [mode]
    overrides this — e.g. [~mode:(Gram 4)] runs dice/cosine/jaccard over
    gram multisets, as the paper does on PubMed (Fig. 17d/e). A [Gram]
    override supersedes [q]; a [Word] override is rejected for the
    character-based functions.

    [lazy_bound] selects the lazy-count threshold: [`Exact] (default) is
    the exact minimum of the overlap threshold over the valid length range;
    [`Paper] is the paper's closed form, which can be strictly smaller
    (weaker pruning) — kept for the ablation benchmark. Both are sound.

    @raise Invalid_argument on an invalid threshold, [q <= 0], or an
    incompatible mode override. *)

val of_index :
  sim:Faerie_sim.Sim.t ->
  ?lazy_bound:[ `Exact | `Paper ] ->
  Faerie_index.Inverted_index.t ->
  t
(** [of_index ~sim index] builds a problem over a prebuilt inverted index —
    typically one restored by {!Faerie_index.Codec.load}. The index's token
    mode must suit [sim] (gram mode for the character-based functions; its
    gram length supplies [q]).

    @raise Invalid_argument on an invalid threshold or incompatible mode. *)

val sim : t -> Faerie_sim.Sim.t

val q : t -> int

val dictionary : t -> Faerie_index.Dictionary.t

val index : t -> Faerie_index.Inverted_index.t

val info : t -> int -> entity_info
(** Per-entity thresholds, by entity id. *)

val global_lower : t -> int
(** [⊥E]: min Lemma 2 lower bound over indexed entities ([max_int] if none). *)

val global_upper : t -> int
(** [⌈E]: max Lemma 2 upper bound over indexed entities ([0] if none). *)

val fallback_entities : t -> int list
(** Ids on the {!Fallback} path, ascending; computed once when the problem
    is built. *)

val overlap_t : t -> e_len:int -> s_len:int -> int
(** The overlap threshold [T] (Lemma 1) for this problem's function. *)

val tokenize_document : t -> string -> Faerie_tokenize.Document.t

val verify_span :
  ?verifier:Faerie_sim.Verify.verifier ->
  t ->
  Faerie_tokenize.Document.t ->
  entity:int ->
  start:int ->
  len:int ->
  Faerie_sim.Verify.Score.t
(** Exact score of the substring [D\[start, len\]] against [entity].
    Character-based functions score the document slice in place (no
    substring is materialized); [verifier] picks the edit-distance engine
    (default [Auto]). *)

val verify_candidate :
  ?verifier:Faerie_sim.Verify.verifier ->
  t ->
  Faerie_tokenize.Document.t ->
  Types.candidate ->
  Faerie_sim.Verify.Score.t
(** {!verify_span} on a {!Types.candidate}. *)

val read_entities : string -> string list
(** The entities of a dictionary file: one per line, trimmed, blank lines
    skipped. @raise Sys_error if the file cannot be read. *)

val load :
  sim:Faerie_sim.Sim.t -> q:int -> dict:string option -> index:string option -> t
(** The problem over a saved index when [index] is given, else over the
    dictionary file [dict] (see {!read_entities}).
    @raise Invalid_argument when neither is given. *)
