type t =
  | Null
  | Bool of bool
  | Int of int64
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---- printing ---- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_text f =
  if Float.is_integer f && Float.abs f < 0x1p53 then
    if f = 0. && Float.sign_bit f then "-0" else Int.to_string (Float.to_int f)
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits = 17 || float_of_string s = f then s else shortest (digits + 1)
    in
    shortest 15

let add_seq buf ~sep add_item items =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      add_item buf x)
    items

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (Int64.to_string n)
  | Num f ->
      (* JSON has no NaN/Inf; null is the least-bad lossy rendering. *)
      Buffer.add_string buf (if Float.is_finite f then float_text f else "null")
  | Str s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      add_seq buf ~sep:"," add items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_seq buf ~sep:"," add_field fields;
      Buffer.add_char buf '}'

and add_field buf (k, v) =
  add_escaped buf k;
  Buffer.add_char buf ':';
  add buf v

let to_string ?(lines = false) v =
  let buf = Buffer.create 256 in
  (match v with
  | Obj fields when lines ->
      let add_field buf = function
        | k, List items ->
            add_escaped buf k;
            Buffer.add_string buf ":[\n";
            add_seq buf ~sep:",\n" add items;
            Buffer.add_string buf "\n]"
        | kv -> add_field buf kv
      in
      Buffer.add_char buf '{';
      add_seq buf ~sep:"," add_field fields;
      Buffer.add_char buf '}'
  | v -> add buf v);
  Buffer.contents buf

let to_lines vs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v ->
      add buf v;
      Buffer.add_char buf '\n')
    vs;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect_char c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let expect_lit c lit v =
  let n = String.length lit in
  if
    c.pos + n <= String.length c.s
    && String.equal (String.sub c.s c.pos n) lit
  then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" lit)

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c "bad \\u escape"
  in
  if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
  let v =
    (digit c.s.[c.pos] lsl 12)
    lor (digit c.s.[c.pos + 1] lsl 8)
    lor (digit c.s.[c.pos + 2] lsl 4)
    lor digit c.s.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect_char c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        (match peek c with
        | Some '"' -> Buffer.add_char buf '"'; advance c
        | Some '\\' -> Buffer.add_char buf '\\'; advance c
        | Some '/' -> Buffer.add_char buf '/'; advance c
        | Some 'n' -> Buffer.add_char buf '\n'; advance c
        | Some 'r' -> Buffer.add_char buf '\r'; advance c
        | Some 't' -> Buffer.add_char buf '\t'; advance c
        | Some 'b' -> Buffer.add_char buf '\b'; advance c
        | Some 'f' -> Buffer.add_char buf '\012'; advance c
        | Some 'u' ->
            advance c;
            let u = hex4 c in
            (* Surrogate pair: a high surrogate must be followed by an
               escaped low surrogate; combine into one scalar value. *)
            if u >= 0xd800 && u <= 0xdbff then begin
              if
                c.pos + 2 <= String.length c.s
                && c.s.[c.pos] = '\\'
                && c.s.[c.pos + 1] = 'u'
              then begin
                c.pos <- c.pos + 2;
                let lo = hex4 c in
                if lo < 0xdc00 || lo > 0xdfff then fail c "bad surrogate pair";
                add_utf8 buf
                  (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
              end
              else fail c "lone high surrogate"
            end
            else if u >= 0xdc00 && u <= 0xdfff then fail c "lone low surrogate"
            else add_utf8 buf u
        | _ -> fail c "bad escape");
        loop ())
    | Some ch when Char.code ch < 0x20 -> fail c "raw control byte in string"
    | Some ch ->
        Buffer.add_char buf ch;
        advance c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when num_char ch -> true | _ -> false do
    advance c
  done;
  if c.pos = start then fail c "expected a number";
  let lit = String.sub c.s start (c.pos - start) in
  match float_of_string_opt lit with
  | None -> fail c "malformed number"
  | Some f when Float.abs f < 0x1p53 -> Num f
  | Some f -> (
      (* Past 2^53 a double skips integers; one it cannot hold stays
         exact. *)
      match Int64.of_string_opt lit with
      | Some n when not (Float.abs f < 0x1p63 && Int64.of_float f = n) -> Int n
      | _ -> Num f)

let rec parse_value depth c =
  if depth > 512 then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect_char c ':';
          let v = parse_value (depth + 1) c in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; members ()
          | Some '}' -> advance c
          | _ -> fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; elements ()
          | Some ']' -> advance c
          | _ -> fail c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value 0 c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing bytes at %d" c.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* ---- accessors ---- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_num = function
  | Num f -> Some f
  | Int n -> Some (Int64.to_float n)
  | _ -> None

let to_int64 = function
  | Int n -> Some n
  | Num f when Float.is_integer f && Float.abs f < 0x1p63 ->
      Some (Int64.of_float f)
  | _ -> None

let to_int j =
  match to_int64 j with
  | Some n when Int64.equal (Int64.of_int (Int64.to_int n)) n ->
      Some (Int64.to_int n)
  | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let decode_all f xs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | x :: rest -> ( match f x with Some v -> go (v :: acc) rest | None -> None)
  in
  go [] xs

let list_of f = function List items -> decode_all f items | _ -> None

let fields_of f = function
  | Obj fields ->
      decode_all (fun (k, v) -> Option.map (fun x -> (k, x)) (f v)) fields
  | _ -> None
