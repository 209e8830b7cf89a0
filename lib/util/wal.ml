module Metrics = Faerie_obs.Metrics
module Append_log = Faerie_obs.Append_log

exception Corrupt of string

exception Truncated of { at : int; len : int }

type op = Add of string | Remove of string

type tail = Clean | Torn of { at : int; len : int }

type t = { path : string; log : Append_log.t; mutable seq : int }

let m_wal_replays = Metrics.counter "wal_replays"

(* ---- record format ----

   One record per mutation:

     [varint payload-len] [payload] [varint fnv1a(payload)]

   where payload is a one-byte opcode ('A' = add, 'R' = remove) followed
   by the raw entity string. Each record is one locked {!Append_log}
   append followed by fsync, so a crash leaves the file equal to a
   whole-record prefix plus at most one torn tail — never an
   interleaving. The parser exploits that shape: running out of bytes
   mid-record is {!Torn} (normal after a crash), while a structurally
   complete record that fails its checksum can only come from real
   corruption and is {!Corrupt}. *)

let encode op =
  let payload =
    match op with
    | Add raw -> "A" ^ raw
    | Remove raw -> "R" ^ raw
  in
  let buf = Buffer.create (String.length payload + 12) in
  Varint.write buf (String.length payload);
  Buffer.add_string buf payload;
  Varint.write buf (Varint.fnv1a payload);
  Buffer.contents buf

(* Checked inline varint decode. Running past [limit] raises [Exit]
   (a torn tail is always a byte-prefix of a valid record, so premature
   end of input is the torn signature); an overlong encoding cannot be a
   prefix of anything valid and is corruption. *)
let read_varint data pos limit =
  let acc = ref 0 and shift = ref 0 and p = ref pos and fin = ref false in
  while not !fin do
    if !p >= limit then raise Exit;
    if !shift > 62 then
      raise (Corrupt (Printf.sprintf "wal: varint overflow at byte %d" pos));
    let b = Char.code (String.unsafe_get data !p) in
    incr p;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fin := true
  done;
  (!acc, !p)

let parse data =
  let n = String.length data in
  let ops = ref [] in
  let pos = ref 0 in
  let torn = ref None in
  (try
     while !pos < n do
       let start = !pos in
       try
         let len, p = read_varint data !pos n in
         if len < 1 then
           raise (Corrupt (Printf.sprintf "wal: empty record at byte %d" start));
         if n - p < len then raise Exit;
         let payload = String.sub data p len in
         let sum, p2 = read_varint data (p + len) n in
         if sum <> Varint.fnv1a payload then
           raise
             (Corrupt (Printf.sprintf "wal: checksum mismatch at byte %d" start));
         let op =
           match payload.[0] with
           | 'A' -> Add (String.sub payload 1 (len - 1))
           | 'R' -> Remove (String.sub payload 1 (len - 1))
           | c ->
               raise
                 (Corrupt
                    (Printf.sprintf "wal: unknown opcode %C at byte %d" c start))
         in
         ops := op :: !ops;
         pos := p2
       with Exit ->
         torn := Some start;
         raise Exit
     done
   with Exit -> ());
  ( List.rev !ops,
    match !torn with None -> Clean | Some at -> Torn { at; len = n } )

(* ---- file handle ---- *)

let openfile path = { path; log = Append_log.openfile path; seq = 0 }

let path t = t.path

let append t op =
  let seq = t.seq in
  t.seq <- seq + 1;
  (* The site fires before any byte is written: an injection models a
     crash before the record is durable, so the mutation must be rejected
     (never acked, never applied in memory). *)
  Fault.with_context seq (fun () -> Fault.site "wal_append");
  Append_log.append ~fsync:true t.log (encode op)

let truncate t =
  Append_log.truncate t.log;
  t.seq <- 0

let close t = Append_log.close t.log

(* ---- recovery ---- *)

let read_all path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

let replay ?(strict = false) path f =
  let ops, tail = parse (read_all path) in
  (if strict then
     match tail with
     | Clean -> ()
     | Torn { at; len } -> raise (Truncated { at; len }));
  Metrics.incr m_wal_replays;
  List.iteri
    (fun i op ->
      Fault.with_context i (fun () -> Fault.site "wal_replay");
      f op)
    ops;
  (List.length ops, tail)

let repair path = function
  | Clean -> ()
  | Torn { at; _ } ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd at;
          Unix.fsync fd)
