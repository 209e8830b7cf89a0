(** Shared result and statistics types for the filtering algorithms. *)

type candidate = {
  entity : int;  (** entity id *)
  start : int;  (** first token position of the substring (0-based) *)
  len : int;  (** substring token count *)
}
(** A substring–entity pair that survived filtering ([|e ∩ s| >= T]). *)

type token_match = {
  m_entity : int;
  m_start : int;  (** first token position *)
  m_len : int;  (** token count *)
  m_score : Faerie_sim.Verify.Score.t;
}
(** A verified match, still in token coordinates. *)

type pruning =
  | No_prune  (** plain single-heap counting (Section 3.3) *)
  | Lazy_count  (** + lazy-count pruning (Section 4.1) *)
  | Bucket_count  (** + bucket-count pruning (Section 4.1) *)
  | Binary_window
      (** + candidate windows found with binary span/shift (Section 4.2);
          this is the full Faerie configuration *)

val pruning_name : pruning -> string
(** ["none"], ["lazy"], ["bucket"], ["binary"]. *)

val all_prunings : pruning list
(** In increasing strength order. *)

type char_match = {
  c_entity : int;
  c_start : int;  (** first character offset *)
  c_len : int;  (** length in characters *)
  c_score : Faerie_sim.Verify.Score.t;
}
(** A verified match in character coordinates (the final result space;
    fallback-path matches are produced here directly since they may not
    align to gram positions). *)

val compare_char_match : char_match -> char_match -> int
(** (entity, start, len): the order of the internal dedup sorts. *)

val compare_span : char_match -> char_match -> int
(** (start, len, entity): the one order served responses list their
    matches in, whatever the shard count. *)

type stats = {
  mutable entities_seen : int;
      (** distinct entities streamed off the heap *)
  mutable entities_pruned_lazy : int;
      (** entities discarded because [|Pe| < Tl] *)
  mutable buckets_pruned : int;
      (** position-list buckets discarded by bucket-count pruning *)
  mutable candidates : int;
      (** the paper's Fig. 14 metric: non-zero occurrence-array entries
          examined (pruning levels None/Lazy/Bucket), or substrings
          enumerated from candidate windows (level Binary) *)
  mutable survivors : int;  (** candidates with [count >= T], sent to verify *)
  mutable verified : int;  (** survivors that passed exact verification *)
}

val new_stats : unit -> stats

val blit_stats : src:stats -> dst:stats -> unit
(** Copy every counter of [src] into [dst] (used to surface the stats of a
    run performed behind the outcome pipeline boundary). *)

val pp_stats : Format.formatter -> stats -> unit

val compare_candidate : candidate -> candidate -> int

val compare_token_match : token_match -> token_match -> int
(** Orders by (entity, start, len); score ignored. *)
