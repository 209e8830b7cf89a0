(** Multiway merge of the document's inverted lists — the "single heap" of
    the paper (Section 3.3).

    Every document token position has an inverted list (entity ids, sorted
    ascending). The merge streams out every (entity, position) occurrence
    grouped by entity in ascending entity order; each group is that
    entity's complete position list, sorted by position, and each inverted
    list is scanned exactly once.

    The lists arrive pre-decoded in one flat buffer (see
    {!Faerie_index.Inverted_index.decode_document}): position [i]'s list is
    [buf[offs.(i) .. offs.(i) + lens.(i))]. The merge allocates only
    per-domain scratch, grown on demand and reused across runs.

    Three merge engines produce identical streams; the [ablations]
    benchmark compares their cost:
    - [Scan_count] (default), ScanCount from Li, Lu and Lu (ICDE 2008): one
      linear pass counts each entity's postings, the touched entity ids are
      radix-sorted, and a second linear pass scatters positions into one
      reusable CSR buffer (int32, off the OCaml heap). Its scratch is
      proportional to the largest entity id and the largest document seen
      on the domain, and a run never scans the whole entity-id space;
    - [Binary_heap], the paper's single heap over one cursor per position:
      a pop and a re-insert per posting on an {!Int_heap};
    - [Tournament_tree], the same merge on a {!Loser_tree} (the structure
      the paper draws, footnote 3). *)

type merger =
  | Binary_heap  (** {!Int_heap} of encoded (entity, position) keys *)
  | Tournament_tree  (** {!Loser_tree} with one leaf per non-empty list *)
  | Scan_count  (** count, radix-sort, scatter (default) *)

val iter_entity_positions :
  ?merger:merger ->
  n_positions:int ->
  buf:int array ->
  offs:int array ->
  lens:int array ->
  f:(entity:int -> positions:int array -> n:int -> unit) ->
  unit ->
  unit
(** [iter_entity_positions ~n_positions ~buf ~offs ~lens ~f ()] calls
    [f ~entity ~positions ~n] once per distinct entity id occurring in any
    of the lists, in ascending entity order, with [positions.(0 .. n-1)]
    the ascending document positions whose list contains the entity (slots
    at [n] and beyond are garbage). The [positions] buffer is reused across
    calls — callers must copy the prefix if they retain it.

    Counters: [heap_merge_runs] and one of [heap_merge_runs_binary],
    [heap_merge_runs_tournament], [heap_merge_runs_scan] per run;
    [heap_pops] adds the postings streamed (the same total for every engine
    on a run that completes) and [heap_list_advances] the postings past the
    head of each list. *)

val heap_stats : n_positions:int -> length_at:(int -> int) -> int * int
(** [(live_cursors, total_postings)] — the number of non-empty inverted
    lists (merge width) and the total number of postings the merge will
    stream ([N] in the paper's complexity table). Used by the index-size
    report (Table 5's "Heap+Array" row). *)
