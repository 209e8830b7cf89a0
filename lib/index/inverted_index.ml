module Tk = Faerie_tokenize
module Dynarray = Faerie_util.Dynarray
module Bytesize = Faerie_util.Bytesize
module Varint = Faerie_util.Varint

(* Posting lists live delta+varint-compressed in one shared [blob];
   token [i]'s block is [blob[offs.(i) .. offs.(i+1))] holding
   [counts.(i)] ascending entity ids (first varint is the first id,
   subsequent varints are strictly positive deltas). *)
(* A mutated dictionary is served as the frozen compressed base plus a
   small uncompressed overlay: per-token arrays of {e added} entity ids
   (always numbered past the base id space, so they sort after every base
   posting and merged lists stay ascending for free) and a tombstone
   bitset over base ids with a per-block tombstone tally (maintainable
   without decoding a block, since an entity appears once per distinct
   token). [overlay = None] is the frozen fast path — bit-identical to
   the pre-overlay code. *)
type overlay = {
  adds : int array array;
      (* per token id (length = interner size at view build): ascending
         ids of live added entities *)
  dead : Bytes.t;  (* bitset over entity ids: tombstoned *)
  dead_counts : int array;  (* per base token: tombstones in its block *)
}

type t = {
  dictionary : Dictionary.t;
  blob : string;
  offs : int array;  (* n_tokens + 1 byte offsets into [blob] *)
  counts : int array;  (* postings per token *)
  n_postings : int;
  overlay : overlay option;
}

let no_dead = Bytes.create 0

let no_adds : int array = [||]

let dead_bit dead id =
  let i = id lsr 3 in
  i < Bytes.length dead
  && Char.code (Bytes.unsafe_get dead i) land (1 lsl (id land 7)) <> 0

module Postings = struct
  type t = {
    blob : string;
    off : int;
    stop : int;
    count : int;  (* merged: live base postings + adds *)
    dead : Bytes.t;  (* tombstone filter for the base block *)
    adds : int array;  (* appended after the base block *)
  }

  let empty =
    { blob = ""; off = 0; stop = 0; count = 0; dead = no_dead; adds = no_adds }

  let length p = p.count

  let is_empty p = p.count = 0

  let iter f p =
    (if Bytes.length p.dead = 0 then begin
       let pos = ref p.off and prev = ref 0 in
       while !pos < p.stop do
         let acc = ref 0 and shift = ref 0 and cont = ref true in
         while !cont do
           let b = Char.code (String.unsafe_get p.blob !pos) in
           incr pos;
           acc := !acc lor ((b land 0x7f) lsl !shift);
           shift := !shift + 7;
           cont := b land 0x80 <> 0
         done;
         prev := !prev + !acc;
         f !prev
       done
     end
     else begin
       let pos = ref p.off and prev = ref 0 in
       while !pos < p.stop do
         let acc = ref 0 and shift = ref 0 and cont = ref true in
         while !cont do
           let b = Char.code (String.unsafe_get p.blob !pos) in
           incr pos;
           acc := !acc lor ((b land 0x7f) lsl !shift);
           shift := !shift + 7;
           cont := b land 0x80 <> 0
         done;
         prev := !prev + !acc;
         if not (dead_bit p.dead !prev) then f !prev
       done
     end);
    Array.iter f p.adds

  let fold f init p =
    let acc = ref init in
    iter (fun id -> acc := f !acc id) p;
    !acc

  let to_array p =
    let out = Array.make p.count 0 in
    let i = ref 0 in
    iter
      (fun id ->
        out.(!i) <- id;
        incr i)
      p;
    out
end

(* Decode one block into [dst] starting at [dst_off]; the blob is validated
   at build/load time, so this inner loop runs unchecked. *)
let decode_into blob ~off ~stop ~dst ~dst_off =
  let pos = ref off and prev = ref 0 and i = ref dst_off in
  while !pos < stop do
    let acc = ref 0 and shift = ref 0 and cont = ref true in
    while !cont do
      let b = Char.code (String.unsafe_get blob !pos) in
      incr pos;
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      cont := b land 0x80 <> 0
    done;
    prev := !prev + !acc;
    Array.unsafe_set dst !i !prev;
    incr i
  done;
  !i - dst_off

let of_blocks dictionary ~blob ~offs ~counts =
  {
    dictionary;
    blob;
    offs;
    counts;
    n_postings = Array.fold_left ( + ) 0 counts;
    overlay = None;
  }

let build dictionary =
  let n_tokens = Tk.Interner.size (Dictionary.interner dictionary) in
  let acc = Array.init n_tokens (fun _ -> Dynarray.create ()) in
  Array.iter
    (fun e ->
      Array.iter
        (fun token -> Dynarray.push acc.(token) e.Entity.id)
        e.Entity.distinct_tokens)
    (Dictionary.entities dictionary);
  let buf = Buffer.create 4096 in
  let offs = Array.make (n_tokens + 1) 0 in
  let counts = Array.make n_tokens 0 in
  for tok = 0 to n_tokens - 1 do
    offs.(tok) <- Buffer.length buf;
    let prev = ref 0 in
    Dynarray.iter
      (fun id ->
        Varint.write buf (id - !prev);
        prev := id)
      acc.(tok);
    counts.(tok) <- Dynarray.length acc.(tok)
  done;
  offs.(n_tokens) <- Buffer.length buf;
  of_blocks dictionary ~blob:(Buffer.contents buf) ~offs ~counts

let of_overlay base ~dictionary ~adds ~dead ~dead_counts =
  if base.overlay <> None then
    invalid_arg "Inverted_index.of_overlay: base is itself an overlay view";
  if Array.length dead_counts <> Array.length base.counts then
    invalid_arg "Inverted_index.of_overlay: dead_counts/base shape mismatch";
  if Array.length adds < Array.length base.counts then
    invalid_arg "Inverted_index.of_overlay: adds narrower than base";
  let n_dead = Array.fold_left ( + ) 0 dead_counts in
  let n_added =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 adds
  in
  {
    dictionary;
    blob = base.blob;
    offs = base.offs;
    counts = base.counts;
    n_postings = base.n_postings - n_dead + n_added;
    overlay = Some { adds; dead; dead_counts };
  }

let is_overlay t = t.overlay <> None

let entity_live t id =
  match t.overlay with None -> true | Some ov -> not (dead_bit ov.dead id)

let raw_blocks t =
  if t.overlay <> None then
    invalid_arg
      "Inverted_index.raw_blocks: overlay view has no stored form (compact \
       first)";
  (t.blob, t.offs, t.counts)

let dictionary t = t.dictionary

let n_tokens t =
  match t.overlay with
  | None -> Array.length t.counts
  | Some ov -> Array.length ov.adds

let postings t token =
  match t.overlay with
  | None ->
      if token < 0 || token >= Array.length t.counts || t.counts.(token) = 0
      then Postings.empty
      else
        {
          Postings.blob = t.blob;
          off = t.offs.(token);
          stop = t.offs.(token + 1);
          count = t.counts.(token);
          dead = no_dead;
          adds = no_adds;
        }
  | Some ov ->
      if token < 0 || token >= Array.length ov.adds then Postings.empty
      else begin
        let n_base = Array.length t.counts in
        let base_raw = if token < n_base then t.counts.(token) else 0 in
        let base_live =
          if token < n_base then base_raw - ov.dead_counts.(token) else 0
        in
        let adds = ov.adds.(token) in
        let count = base_live + Array.length adds in
        if count = 0 then Postings.empty
        else if base_raw = 0 then
          { Postings.empty with count; adds }
        else
          {
            Postings.blob = t.blob;
            off = t.offs.(token);
            stop = t.offs.(token + 1);
            count;
            dead = (if base_live < base_raw then ov.dead else no_dead);
            adds;
          }
      end

let n_postings t = t.n_postings

let n_lists t =
  match t.overlay with
  | None -> Array.fold_left (fun acc c -> acc + if c > 0 then 1 else 0) 0 t.counts
  | Some ov ->
      let n = ref 0 in
      let n_base = Array.length t.counts in
      Array.iteri
        (fun tok adds ->
          let base_live =
            if tok < n_base then t.counts.(tok) - ov.dead_counts.(tok) else 0
          in
          if base_live + Array.length adds > 0 then incr n)
        ov.adds;
      !n

let heap_bytes t =
  let directory_words =
    Bytesize.words_per_int_array (Array.length t.offs)
    + Bytesize.words_per_int_array (Array.length t.counts)
  in
  let overlay_bytes =
    match t.overlay with
    | None -> 0
    | Some ov ->
        let add_words =
          Array.fold_left
            (fun acc a -> acc + Bytesize.words_per_int_array (Array.length a))
            (Array.length ov.adds)
            ov.adds
        in
        Bytesize.bytes_of_words
          (add_words + Bytesize.words_per_int_array (Array.length ov.dead_counts))
        + Bytes.length ov.dead
  in
  Bytesize.string_bytes t.blob
  + Bytesize.bytes_of_words directory_words
  + overlay_bytes
  + Tk.Interner.heap_bytes (Dictionary.interner t.dictionary)

(* ---- per-document decode workspace ---- *)

module Workspace = struct
  type t = {
    mutable epoch : int;
    mutable tok_epoch : int array;  (* per token id: epoch of last decode *)
    mutable tok_off : int array;  (* per token id: offset of decode in buf *)
    mutable tok_len : int array;
        (* per token id: merged posting count (overlay path only; the base
           path reads lengths straight from [counts]) *)
    mutable buf : int array;  (* decoded entity ids, flat *)
    mutable buf_len : int;
    mutable offs : int array;  (* per document position: offset into buf *)
    mutable lens : int array;  (* per document position: posting count *)
  }

  let create () =
    {
      epoch = 0;
      tok_epoch = [||];
      tok_off = [||];
      tok_len = [||];
      buf = Array.make 1024 0;
      buf_len = 0;
      offs = [||];
      lens = [||];
    }
end

let ensure_len a n = if Array.length a >= n then a else Array.make n 0

let grow_buf ws need =
  let open Workspace in
  if Array.length ws.buf < need then begin
    let cap = ref (2 * Array.length ws.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let buf = Array.make !cap 0 in
    Array.blit ws.buf 0 buf 0 ws.buf_len;
    ws.buf <- buf
  end

let decode_document_base t ws doc =
  let open Workspace in
  let ntok = Array.length t.counts in
  if Array.length ws.tok_epoch < ntok then begin
    ws.tok_epoch <- Array.make ntok 0;
    ws.tok_off <- Array.make ntok 0;
    ws.epoch <- 0
  end;
  ws.epoch <- ws.epoch + 1;
  ws.buf_len <- 0;
  let n = Tk.Document.n_tokens doc in
  let tokens = Tk.Document.tokens doc in
  ws.offs <- ensure_len ws.offs n;
  ws.lens <- ensure_len ws.lens n;
  for pos = 0 to n - 1 do
    let tok = Array.unsafe_get tokens pos in
    if tok < 0 || tok >= ntok || t.counts.(tok) = 0 then begin
      ws.offs.(pos) <- 0;
      ws.lens.(pos) <- 0
    end
    else begin
      (* Each distinct token is decoded once per document. *)
      if ws.tok_epoch.(tok) <> ws.epoch then begin
        let count = t.counts.(tok) in
        grow_buf ws (ws.buf_len + count);
        let k =
          decode_into t.blob ~off:t.offs.(tok) ~stop:t.offs.(tok + 1)
            ~dst:ws.buf ~dst_off:ws.buf_len
        in
        assert (k = count);
        ws.tok_epoch.(tok) <- ws.epoch;
        ws.tok_off.(tok) <- ws.buf_len;
        ws.buf_len <- ws.buf_len + count
      end;
      ws.offs.(pos) <- ws.tok_off.(tok);
      ws.lens.(pos) <- t.counts.(tok)
    end
  done;
  (ws.buf, ws.offs, ws.lens)

(* Overlay slow path: per distinct token, decode the base block, compact
   tombstoned ids out in place, then append the (already ascending,
   always larger) added ids. [tok_len] memoizes the merged length per
   token, since it is no longer derivable from [t.counts]. *)
let decode_document_overlay t ov ws doc =
  let open Workspace in
  let ntok = Array.length ov.adds in
  let n_base = Array.length t.counts in
  if Array.length ws.tok_epoch < ntok then begin
    ws.tok_epoch <- Array.make ntok 0;
    ws.tok_off <- Array.make ntok 0;
    ws.epoch <- 0
  end;
  if Array.length ws.tok_len < ntok then ws.tok_len <- Array.make ntok 0;
  ws.epoch <- ws.epoch + 1;
  ws.buf_len <- 0;
  let n = Tk.Document.n_tokens doc in
  let tokens = Tk.Document.tokens doc in
  ws.offs <- ensure_len ws.offs n;
  ws.lens <- ensure_len ws.lens n;
  for pos = 0 to n - 1 do
    let tok = Array.unsafe_get tokens pos in
    if tok < 0 || tok >= ntok then begin
      ws.offs.(pos) <- 0;
      ws.lens.(pos) <- 0
    end
    else begin
      if ws.tok_epoch.(tok) <> ws.epoch then begin
        let base_raw = if tok < n_base then t.counts.(tok) else 0 in
        let adds = ov.adds.(tok) in
        grow_buf ws (ws.buf_len + base_raw + Array.length adds);
        let w = ref ws.buf_len in
        if base_raw > 0 then
          if ov.dead_counts.(tok) = 0 then
            w :=
              ws.buf_len
              + decode_into t.blob ~off:t.offs.(tok) ~stop:t.offs.(tok + 1)
                  ~dst:ws.buf ~dst_off:ws.buf_len
          else begin
            let k =
              decode_into t.blob ~off:t.offs.(tok) ~stop:t.offs.(tok + 1)
                ~dst:ws.buf ~dst_off:ws.buf_len
            in
            for i = ws.buf_len to ws.buf_len + k - 1 do
              let id = ws.buf.(i) in
              if not (dead_bit ov.dead id) then begin
                ws.buf.(!w) <- id;
                incr w
              end
            done
          end;
        Array.blit adds 0 ws.buf !w (Array.length adds);
        w := !w + Array.length adds;
        ws.tok_epoch.(tok) <- ws.epoch;
        ws.tok_off.(tok) <- ws.buf_len;
        ws.tok_len.(tok) <- !w - ws.buf_len;
        ws.buf_len <- !w
      end;
      ws.offs.(pos) <- ws.tok_off.(tok);
      ws.lens.(pos) <- ws.tok_len.(tok)
    end
  done;
  (ws.buf, ws.offs, ws.lens)

let decode_document t ws doc =
  match t.overlay with
  | None -> decode_document_base t ws doc
  | Some ov -> decode_document_overlay t ov ws doc
