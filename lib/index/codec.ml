module Tk = Faerie_tokenize
module Varint = Faerie_util.Varint
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace

exception Corrupt of string

exception Truncated of { at : int; len : int }

let m_save_bytes =
  Metrics.counter ~help:"bytes produced by index encoding" "codec_save_bytes"

let m_load_bytes =
  Metrics.counter ~help:"bytes consumed by index decoding" "codec_load_bytes"

let m_corrupt =
  Metrics.counter ~help:"decode attempts rejected as corrupt"
    "codec_corrupt_rejects"

let m_truncated =
  Metrics.counter ~help:"decode attempts rejected as truncated (torn write)"
    "codec_truncated_rejects"

let magic = "FAERIEIX"

(* v2 stores the index's compressed blocks verbatim — per token
   [(count, nbytes, block bytes)] — so load adopts validated blocks without
   re-encoding. v1 (bare delta varints per list) is no longer read: no
   build has written it since the blocks arrived. *)
let version = 2

let encode dict index =
  Trace.with_span "codec_encode" @@ fun () ->
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  Varint.write buf version;
  (match Dictionary.mode dict with
  | Tk.Document.Word ->
      Varint.write buf 0;
      Varint.write buf 0
  | Tk.Document.Gram q ->
      Varint.write buf 1;
      Varint.write buf q);
  let interner = Dictionary.interner dict in
  let n_tokens = Tk.Interner.size interner in
  Varint.write buf n_tokens;
  for tok = 0 to n_tokens - 1 do
    Varint.write_string buf (Tk.Interner.to_string interner tok)
  done;
  let entities = Dictionary.entities dict in
  Varint.write buf (Array.length entities);
  Array.iter
    (fun e ->
      Varint.write_string buf e.Entity.raw;
      Varint.write buf (Array.length e.Entity.tokens);
      Array.iter (Varint.write buf) e.Entity.tokens)
    entities;
  let blob, offs, counts = Inverted_index.raw_blocks index in
  Varint.write buf (Array.length counts);
  for tok = 0 to Array.length counts - 1 do
    Varint.write buf counts.(tok);
    let nbytes = offs.(tok + 1) - offs.(tok) in
    Varint.write buf nbytes;
    Buffer.add_substring buf blob offs.(tok) nbytes
  done;
  let payload = Buffer.contents buf in
  let out = Buffer.create (String.length payload + 10) in
  Buffer.add_string out payload;
  Varint.write out (Varint.fnv1a payload);
  let data = Buffer.contents out in
  Metrics.add m_save_bytes (String.length data);
  data

let decode data =
  Trace.with_span "codec_decode" @@ fun () ->
  let fail msg =
    Metrics.incr m_corrupt;
    raise (Corrupt msg)
  in
  Faerie_util.Fault.site "codec_io";
  Metrics.add m_load_bytes (String.length data);
  (* The reader is created outside the [try] so the truncation handler can
     report how far decoding got before the input ran out. *)
  let r = Varint.reader data in
  try
    (* Every claimed element count is validated against the bytes still
       unread before any [Array.init] / [Interner.create] sized by it: each
       element costs at least one encoded byte, so a count larger than the
       remaining input is corrupt by construction. Without this, an
       adversarial length field triggers a multi-GB allocation (or
       [Out_of_memory]) before the trailing checksum is ever consulted. *)
    let check_count what n =
      if n < 0 || n > String.length data - Varint.pos r then
        fail (Printf.sprintf "%s count %d exceeds input" what n)
    in
    Varint.expect r magic;
    let v = Varint.read r in
    if v <> version then fail (Printf.sprintf "unsupported version %d" v);
    let mode =
      match Varint.read r with
      | 0 ->
          ignore (Varint.read r);
          Tk.Document.Word
      | 1 -> Tk.Document.Gram (Varint.read r)
      | k -> fail (Printf.sprintf "unknown mode tag %d" k)
    in
    let n_tokens = Varint.read r in
    check_count "token" n_tokens;
    let interner = Tk.Interner.create ~initial_capacity:(max 16 n_tokens) () in
    for expected = 0 to n_tokens - 1 do
      let id = Tk.Interner.intern interner (Varint.read_string r) in
      if id <> expected then fail "duplicate token string"
    done;
    let n_entities = Varint.read r in
    check_count "entity" n_entities;
    let entities =
      Array.init n_entities (fun id ->
          let raw = Varint.read_string r in
          let n = Varint.read r in
          check_count "entity token" n;
          let tokens =
            Array.init n (fun _ ->
                let tok = Varint.read r in
                if tok >= n_tokens then fail "token id out of range";
                tok)
          in
          Entity.of_tokens ~id ~raw ~text:(Tk.Tokenizer.normalize raw) ~tokens)
    in
    let n_lists = Varint.read r in
    if n_lists <> n_tokens then fail "postings/token count mismatch";
    (* Every block is fully validated here — ascending ids in range,
       exactly [nbytes] consumed — then adopted verbatim, so
       {!Inverted_index} may decode it unchecked later. *)
    let blob = Buffer.create 4096 in
    let offs = Array.make (n_lists + 1) 0 in
    let counts = Array.make n_lists 0 in
    for tok = 0 to n_lists - 1 do
      offs.(tok) <- Buffer.length blob;
      let count = Varint.read r in
      check_count "postings" count;
      let nbytes = Varint.read r in
      if nbytes > String.length data - Varint.pos r then begin
        (* A block length pointing past the input is the torn-write
           signature, same as running out of bytes mid-varint. *)
        Metrics.incr m_truncated;
        raise (Truncated { at = Varint.pos r; len = String.length data })
      end;
      if count > nbytes then fail "postings count exceeds block";
      let block_start = Varint.pos r in
      let prev = ref 0 in
      for i = 0 to count - 1 do
        let delta = Varint.read r in
        if i > 0 && delta = 0 then fail "non-ascending postings";
        prev := !prev + delta;
        if !prev >= n_entities then fail "entity id out of range"
      done;
      if Varint.pos r - block_start <> nbytes then
        fail "postings block length mismatch";
      counts.(tok) <- count;
      Buffer.add_substring blob data block_start nbytes
    done;
    offs.(n_lists) <- Buffer.length blob;
    let blob = Buffer.contents blob in
    let payload_end = Varint.pos r in
    let checksum = Varint.read r in
    if not (Varint.at_end r) then fail "trailing bytes";
    if checksum <> Varint.fnv1a (String.sub data 0 payload_end) then
      fail "checksum mismatch";
    let dict = Dictionary.of_stored ~mode ~interner entities in
    (dict, Inverted_index.of_blocks dict ~blob ~offs ~counts)
  with Varint.Malformed msg ->
    (* [Varint] prefixes every ran-out-of-bytes message with "truncated";
       everything else (bad magic, malformed varint byte) is corruption.
       A truncated file is the signature of a torn write — a crash between
       write and rename, or a partial copy — and callers may want to fall
       back to a previous snapshot rather than alert on corruption. *)
    if String.length msg >= 9 && String.sub msg 0 9 = "truncated" then begin
      Metrics.incr m_truncated;
      raise (Truncated { at = Varint.pos r; len = String.length data })
    end
    else fail msg

(* Crash-safe save: encode to a temp file in the destination directory,
   fsync it, then atomically rename over [path]. A reader concurrently
   calling [load] sees either the old snapshot or the new one, never a
   partially written file. The "codec_rename" fault site models a crash in
   the window after the temp file is durable but before the rename: the
   destination still holds the previous snapshot and the temp file is left
   behind (as a real crash would), so recovery paths can be tested. *)
let save dict index path =
  let data = encode dict index in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  (try
     let len = String.length data in
     let pos = ref 0 in
     while !pos < len do
       pos := !pos + Unix.write_substring fd data !pos (len - !pos)
     done;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* An injected fault here simulates a crash inside the write/rename
     window: it propagates with the temp file left on disk, exactly as a
     kill would leave it. *)
  Faerie_util.Fault.site "codec_rename";
  (try Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* Best effort: make the rename itself durable. Directories cannot be
     opened O_WRONLY; some filesystems refuse fsync on O_RDONLY dirs. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd -> (
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      try Unix.close dfd with Unix.Unix_error _ -> ())

let load path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  decode data
