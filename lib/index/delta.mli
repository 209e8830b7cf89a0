(** Online dictionary mutation: a small uncompressed add/tombstone overlay
    over a frozen compressed index.

    Adds get fresh entity ids past the base id space (ids are never
    reused, so every merged posting list stays ascending by construction);
    removes tombstone the id. {!view} materializes an immutable merged
    {!Inverted_index.t} that {!Faerie_core.Extractor.run} consumes with
    zero change to callers; every structure a view captures is copied, so
    worker domains can keep reading a published view while further
    mutations land here. {!compact} folds the overlay into a fresh dense
    snapshot (new ids, fresh interner) for the Codec-v2 save +
    generation-bump reload path.

    Durability is the caller's: append to {!Faerie_util.Wal} {e before}
    applying the mutation here, and replay the WAL through {!add} /
    {!remove} on startup — both are idempotent under replay (re-adding a
    live raw is [Exists], removing an absent one is [Absent]), so a crash
    between a WAL append and a compaction's log truncation never loses or
    duplicates a mutation.

    Registers the [dict_adds] / [dict_removes] / [compactions] counters
    and the [delta_entities] gauge (current overlay size: live adds +
    tombstones). *)

type t

type add_result =
  | Added of int  (** fresh id, numbered past the base id space *)
  | Exists of int  (** raw already live under this id; no-op *)

type remove_result =
  | Removed of int
  | Absent  (** raw not live; no-op *)

val create : Inverted_index.t -> t
(** Start an empty overlay over a frozen base. The private interner copy
    and the raw-string table a mutation needs are built on the first
    {!add}, {!remove} or {!mem}, so an overlay that is never mutated costs
    no copy of the base dictionary.

    @raise Invalid_argument if the base is itself an overlay view. *)

val base : t -> Inverted_index.t

val add : t -> string -> add_result
(** Add a raw entity string, tokenized exactly as {!Dictionary.create}
    would (into a private interner copy — never the one live readers
    probe). *)

val remove : t -> string -> remove_result
(** Remove by exact raw string. A base entity is tombstoned; an added one
    is withdrawn from the add lists (its id slot stays dead — ids are
    never reused). Re-adding the same raw later allocates a fresh id. *)

val mem : t -> string -> int option
(** Live id of a raw, if present. *)

val pending : t -> int
(** Overlay size: live adds + tombstones (what the [delta_entities] gauge
    reports). *)

val live_count : t -> int
(** Number of live entities in the merged view. *)

val live_raws : t -> string list
(** Live raw strings in id order — the compaction input. *)

val view : t -> Inverted_index.t
(** The merged read-only view (cached until the next mutation). With no
    mutations pending this is the base itself, so the zero-overlay fast
    path stays bit-identical. *)

val compact : t -> Inverted_index.t
(** Fold the overlay into a fresh dense index ({!Dictionary.create} +
    {!Inverted_index.build} over {!live_raws}): new dense ids, fresh
    interner, no overlay — ready for {!Codec.save}. The delta itself is
    not consumed; the caller swaps to [Delta.create (compact t)] once the
    snapshot is durable. *)
