module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module A1 = Bigarray.Array1

type merger = Binary_heap | Tournament_tree | Scan_count

let m_pops =
  Metrics.counter ~help:"postings streamed by the multiway merge" "heap_pops"

let m_advances =
  Metrics.counter ~help:"inverted-list cursor advances during merge"
    "heap_list_advances"

let m_runs = Metrics.counter ~help:"multiway merge runs" "heap_merge_runs"

let m_runs_binary =
  Metrics.counter ~help:"merge runs using the binary heap" "heap_merge_runs_binary"

let m_runs_tournament =
  Metrics.counter ~help:"merge runs using the tournament tree"
    "heap_merge_runs_tournament"

let m_runs_scan =
  Metrics.counter ~help:"merge runs using ScanCount" "heap_merge_runs_scan"

(* Number of bits needed to address [n] positions. *)
let rec bits_for n acc = if n <= 1 then acc else bits_for ((n + 1) / 2) (acc + 1)

(* Per-domain merge scratch, reused across runs: the position-group buffer
   handed to [f], the per-list cursors, and the binary heap. Grown to the
   largest [n_positions] seen on the domain; a steady-state merge allocates
   none of its working set. *)
type scratch = {
  mutable positions : int array;
  mutable cursor : int array;
  heap : Int_heap.t;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { positions = [||]; cursor = [||]; heap = Int_heap.create () })

let rec round_up cap n = if cap >= n then cap else round_up (2 * max cap 16) n

let scratch_for n_positions =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.positions < n_positions then begin
    let cap = round_up (Array.length sc.positions) n_positions in
    sc.positions <- Array.make cap 0;
    sc.cursor <- Array.make cap 0
  end;
  Int_heap.clear sc.heap;
  sc

(* Both heap engines stream keys [(entity lsl shift) lor position] in
   ascending order: native int order = lexicographic (entity, position)
   order. The consumer groups runs of equal entity into position lists,
   written into a domain-lifetime scratch array (a group holds at most one
   entry per document position, so [n_positions] bounds it). [f] must not
   retain [positions] past its return. *)

let consume ~positions ~shift ~mask ~next ~f =
  let n = ref 0 in
  let current = ref (-1) in
  let flush () = if !current >= 0 && !n > 0 then f ~entity:!current ~positions ~n:!n in
  let rec loop () =
    match next () with
    | -1 -> ()
    | key ->
        let entity = key lsr shift and pos = key land mask in
        if entity <> !current then begin
          flush ();
          current := entity;
          n := 0
        end;
        Array.unsafe_set positions !n pos;
        incr n;
        loop ()
  in
  loop ();
  flush ()

let run_binary_heap ~pops ~advances ~n_positions ~buf ~offs ~lens ~shift ~mask ~f =
  let sc = scratch_for n_positions in
  let heap = sc.heap and cursor = sc.cursor in
  for pos = 0 to n_positions - 1 do
    cursor.(pos) <- 0;
    if lens.(pos) > 0 then
      Int_heap.push heap ((buf.(offs.(pos)) lsl shift) lor pos)
  done;
  let next () =
    if Int_heap.is_empty heap then -1
    else begin
      let key = Int_heap.peek_exn heap in
      let pos = key land mask in
      let i = cursor.(pos) + 1 in
      pops := !pops + 1;
      if i < lens.(pos) then begin
        cursor.(pos) <- i;
        advances := !advances + 1;
        Int_heap.replace_top heap ((buf.(offs.(pos) + i) lsl shift) lor pos)
      end
      else ignore (Int_heap.pop_exn heap);
      key
    end
  in
  consume ~positions:sc.positions ~shift ~mask ~next ~f

let run_tournament ~pops ~advances ~n_positions ~buf ~offs ~lens ~shift ~mask ~f =
  (* One tournament leaf per non-empty list. *)
  let leaves = ref [] in
  for pos = n_positions - 1 downto 0 do
    if lens.(pos) > 0 then leaves := pos :: !leaves
  done;
  match !leaves with
  | [] -> ()
  | leaves ->
      let leaf_pos = Array.of_list leaves in
      let k = Array.length leaf_pos in
      let cursor = Array.make k 0 in
      let keys =
        Array.init k (fun j ->
            (buf.(offs.(leaf_pos.(j))) lsl shift) lor leaf_pos.(j))
      in
      let tree = Loser_tree.create ~keys in
      let next () =
        if Loser_tree.exhausted tree then -1
        else begin
          let j = Loser_tree.winner tree in
          let key = keys.(j) in
          let pos = leaf_pos.(j) in
          let i = cursor.(j) + 1 in
          pops := !pops + 1;
          if i < lens.(pos) then begin
            cursor.(j) <- i;
            advances := !advances + 1;
            keys.(j) <- (buf.(offs.(pos) + i) lsl shift) lor pos
          end
          else keys.(j) <- max_int;
          Loser_tree.replay tree;
          key
        end
      in
      let sc = scratch_for n_positions in
      consume ~positions:sc.positions ~shift ~mask ~next ~f

(* ScanCount (Li, Lu and Lu, ICDE 2008) adapted to position lists. Pass one
   counts each entity's postings into [count], noting first touches in
   [touched]; a radix sort orders the touched ids; a prefix sum over them
   turns [count] into CSR offsets; pass two scatters document positions, in
   document order, into [csr]. Every entity's slice is then ascending, and
   the slices come out in ascending entity order — exactly the stream the
   heap engines produce, with two linear passes in place of a heap pop and
   re-insert per posting.

   [count] spans the entity ids seen on the domain so far and is all zeros
   between runs: each delivered entity's slot is reset as it is handed out,
   and an aborted run resets the rest. [touched] and [sorted] (the radix
   sort's other buffer) are sized like [count]; a run reads and resets only
   the ids it touched, never the whole id space. [csr] holds one int32 per
   posting, off the OCaml heap: a page's postings would otherwise grow the
   major heap and the process's resident size with it. *)
type scan = {
  mutable count : int array;
  mutable touched : int array;
  mutable sorted : int array;
  digit_count : int array;
  mutable csr : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
}

let radix_bits = 8

let scan_key : scan Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        count = [||];
        touched = [||];
        sorted = [||];
        digit_count = Array.make (1 lsl radix_bits) 0;
        csr = A1.create Bigarray.int32 Bigarray.c_layout 0;
      })

(* Grow the id-indexed arrays to cover [max_id] (between runs [count] is
   all zeros, so a fresh array loses nothing). *)
let scan_for ~max_id =
  let s = Domain.DLS.get scan_key in
  if Array.length s.count <= max_id then begin
    let cap = round_up (Array.length s.count) (max_id + 1) in
    s.count <- Array.make cap 0;
    s.touched <- Array.make cap 0;
    s.sorted <- Array.make cap 0
  end;
  s

(* LSD radix sort of [src.(0 .. n-1)] (ids <= [max_id]), one byte per pass,
   ping-ponging with [dst]. Returns the buffer holding the sorted ids. *)
let radix_sort s ~n ~max_id =
  let digits = s.digit_count in
  let radix = Array.length digits in
  let src = ref s.touched and dst = ref s.sorted in
  let shift = ref 0 in
  while max_id lsr !shift > 0 do
    let a = !src and b = !dst and sh = !shift in
    Array.fill digits 0 radix 0;
    for i = 0 to n - 1 do
      let d = (Array.unsafe_get a i lsr sh) land (radix - 1) in
      Array.unsafe_set digits d (Array.unsafe_get digits d + 1)
    done;
    let sum = ref 0 in
    for d = 0 to radix - 1 do
      let c = Array.unsafe_get digits d in
      Array.unsafe_set digits d !sum;
      sum := !sum + c
    done;
    for i = 0 to n - 1 do
      let v = Array.unsafe_get a i in
      let d = (v lsr sh) land (radix - 1) in
      let at = Array.unsafe_get digits d in
      Array.unsafe_set b at v;
      Array.unsafe_set digits d (at + 1)
    done;
    src := b;
    dst := a;
    shift := sh + radix_bits
  done;
  !src

let run_scan_count ~pops ~advances ~n_positions ~buf ~offs ~lens ~f =
  (* Each list is ascending, so its last posting is its largest id. *)
  let max_id = ref (-1) and live = ref 0 in
  for pos = 0 to n_positions - 1 do
    let len = lens.(pos) in
    if len > 0 then begin
      incr live;
      let last = buf.(offs.(pos) + len - 1) in
      if last > !max_id then max_id := last
    end
  done;
  if !max_id >= 0 then begin
    let max_id = !max_id in
    let s = scan_for ~max_id in
    let count = s.count and touched = s.touched in
    let n_touched = ref 0 in
    try
      (* Pass one: count. The checked read keeps an out-of-contract
         (unsorted) list from writing past [count]. *)
      for pos = 0 to n_positions - 1 do
        let o = offs.(pos) in
        for i = o to o + lens.(pos) - 1 do
          let e = buf.(i) in
          let c = count.(e) in
          if c = 0 then begin
            Array.unsafe_set touched !n_touched e;
            incr n_touched
          end;
          Array.unsafe_set count e (c + 1)
        done
      done;
      let n = !n_touched in
      let order = radix_sort s ~n ~max_id in
      (* Prefix sum: [count.(e)] becomes the start of [e]'s slice. *)
      let total = ref 0 in
      for k = 0 to n - 1 do
        let e = Array.unsafe_get order k in
        let c = Array.unsafe_get count e in
        Array.unsafe_set count e !total;
        total := !total + c
      done;
      let total = !total in
      if A1.dim s.csr < total then
        s.csr <-
          A1.create Bigarray.int32 Bigarray.c_layout
            (round_up (A1.dim s.csr) total);
      let csr = s.csr in
      (* Pass two: scatter; [count.(e)] advances to the end of [e]'s slice. *)
      for pos = 0 to n_positions - 1 do
        let o = offs.(pos) and p = Int32.of_int pos in
        for i = o to o + lens.(pos) - 1 do
          let e = Array.unsafe_get buf i in
          let at = Array.unsafe_get count e in
          A1.unsafe_set csr at p;
          Array.unsafe_set count e (at + 1)
        done
      done;
      pops := total;
      advances := total - !live;
      let positions = (scratch_for n_positions).positions in
      let start = ref 0 in
      for k = 0 to n - 1 do
        let e = Array.unsafe_get order k in
        let stop = Array.unsafe_get count e in
        Array.unsafe_set count e 0;
        let m = stop - !start in
        for j = 0 to m - 1 do
          Array.unsafe_set positions j (Int32.to_int (A1.unsafe_get csr (!start + j)))
        done;
        start := stop;
        f ~entity:e ~positions ~n:m
      done
    with exn ->
      (* [f] aborted (budget exhaustion) or a list broke the contract: leave
         [count] all zeros for the next run. [touched] still holds every id
         this run counted, in some order, whatever the sort did to it. *)
      let bt = Printexc.get_raw_backtrace () in
      for k = 0 to !n_touched - 1 do
        Array.unsafe_set count (Array.unsafe_get touched k) 0
      done;
      Printexc.raise_with_backtrace exn bt
  end

let iter_entity_positions ?(merger = Scan_count) ~n_positions ~buf ~offs ~lens
    ~f () =
  Faerie_util.Fault.site "heap_merge";
  if n_positions > 0 then begin
    let shift = max 1 (bits_for n_positions 0) in
    let mask = (1 lsl shift) - 1 in
    Metrics.incr m_runs;
    Metrics.incr
      (match merger with
      | Binary_heap -> m_runs_binary
      | Tournament_tree -> m_runs_tournament
      | Scan_count -> m_runs_scan);
    (* Accumulate locally and flush once per run; [f] can abort the merge
       mid-stream (budget exhaustion), so flush under protection. *)
    let pops = ref 0 and advances = ref 0 in
    Fun.protect
      ~finally:(fun () ->
        Metrics.add m_pops !pops;
        Metrics.add m_advances !advances)
      (fun () ->
        Trace.with_span "heap_merge" (fun () ->
            match merger with
            | Binary_heap ->
                run_binary_heap ~pops ~advances ~n_positions ~buf ~offs ~lens
                  ~shift ~mask ~f
            | Tournament_tree ->
                run_tournament ~pops ~advances ~n_positions ~buf ~offs ~lens
                  ~shift ~mask ~f
            | Scan_count ->
                run_scan_count ~pops ~advances ~n_positions ~buf ~offs ~lens ~f))
  end

let heap_stats ~n_positions ~length_at =
  let live = ref 0 and total = ref 0 in
  for pos = 0 to n_positions - 1 do
    let len = length_at pos in
    if len > 0 then begin
      incr live;
      total := !total + len
    end
  done;
  (!live, !total)
