(** A live dictionary: a {!Faerie_index.Delta} overlay over a frozen
    index, the extractor published from it, and the snapshot generation
    it serves — the one cell the single-process server, each cluster
    shard and offline [faerie dict compact] mutate.

    Publication is copy-on-write ({!Faerie_index.Delta.view}): workers
    keep extracting against the extractor they read while a new one is
    published. {!extractor} and {!generation} are safe from any domain;
    mutation belongs to one owner thread. *)

type t

val create :
  ?gen:int ->
  ?replay:((Faerie_util.Wal.op -> unit) -> unit) ->
  sim:Faerie_sim.Sim.t ->
  Faerie_index.Inverted_index.t ->
  t
(** An empty overlay over [index] at generation [gen] (default [0]).
    [replay] is handed the overlay's apply function to feed recovered
    mutations (a WAL replay) before the one publication. *)

val of_problem : ?gen:int -> Problem.t -> t
(** A cell publishing an already-built problem — a compaction's result. *)

val extractor : t -> Extractor.t
val generation : t -> int

val apply : t -> Faerie_util.Wal.op -> bool * int
(** Apply one mutation, republishing when it changed the dictionary.
    Returns [(applied, entity)]: [applied] is false for the idempotent
    no-ops (adding a live raw, removing an absent one); [entity] is the
    id the mutation resolved to, [-1] when none. *)

val pending : t -> int
(** Mutations in the overlay since the base snapshot. *)

val live_count : t -> int

val fold : t -> Problem.t
(** The overlay folded into a dense, freshly built problem (what a
    compaction saves); the cell is unchanged. *)

val adopt : t -> t -> unit
(** [adopt t next]: [t] now serves [next]'s overlay, extractor and
    generation (a reload or compaction commit). *)
