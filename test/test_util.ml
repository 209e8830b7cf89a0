(* Tests for Faerie_util: PRNG, dynamic arrays, byte-size helpers. *)

module Xorshift = Faerie_util.Xorshift
module Dynarray = Faerie_util.Dynarray
module Bytesize = Faerie_util.Bytesize

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Xorshift                                                            *)
(* ------------------------------------------------------------------ *)

let test_deterministic () =
  let a = Xorshift.create 7 and b = Xorshift.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Xorshift.bits64 a = Xorshift.bits64 b)
  done

let test_seed_zero_ok () =
  let rng = Xorshift.create 0 in
  let x = Xorshift.bits64 rng and y = Xorshift.bits64 rng in
  check_bool "zero seed produces a moving stream" true (x <> y)

let test_different_seeds_differ () =
  let a = Xorshift.create 1 and b = Xorshift.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Xorshift.bits64 a = Xorshift.bits64 b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let test_int_in_bounds () =
  let rng = Xorshift.create 11 in
  for _ = 1 to 1000 do
    let x = Xorshift.int rng 17 in
    check_bool "0 <= x < 17" true (x >= 0 && x < 17)
  done

let test_int_covers_range () =
  let rng = Xorshift.create 13 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Xorshift.int rng 5) <- true
  done;
  check_bool "all residues hit" true (Array.for_all Fun.id seen)

let test_int_invalid_bound () =
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Xorshift.int: bound must be positive") (fun () ->
      ignore (Xorshift.int (Xorshift.create 1) 0))

let test_int_in_range () =
  let rng = Xorshift.create 3 in
  for _ = 1 to 500 do
    let x = Xorshift.int_in_range rng ~lo:(-4) ~hi:9 in
    check_bool "in [-4,9]" true (x >= -4 && x <= 9)
  done;
  check_int "singleton range" 5 (Xorshift.int_in_range rng ~lo:5 ~hi:5)

let test_float_in_bounds () =
  let rng = Xorshift.create 5 in
  for _ = 1 to 1000 do
    let x = Xorshift.float rng 2.5 in
    check_bool "0 <= x < 2.5" true (x >= 0. && x < 2.5)
  done

let test_copy_independent () =
  let a = Xorshift.create 9 in
  ignore (Xorshift.bits64 a);
  let b = Xorshift.copy a in
  let xa = Xorshift.bits64 a and xb = Xorshift.bits64 b in
  check_bool "copies continue identically" true (xa = xb);
  ignore (Xorshift.bits64 a);
  let xa2 = Xorshift.bits64 a and xb2 = Xorshift.bits64 b in
  check_bool "then diverge independently" true (xa2 <> xb2 || xa2 = xb2)

let test_choose () =
  let rng = Xorshift.create 21 in
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    check_bool "chosen from array" true (Array.mem (Xorshift.choose rng arr) arr)
  done

let test_shuffle_permutation () =
  let rng = Xorshift.create 17 in
  let arr = Array.init 30 Fun.id in
  Xorshift.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 30 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Dynarray                                                            *)
(* ------------------------------------------------------------------ *)

let test_push_get () =
  let d = Dynarray.create () in
  for i = 0 to 99 do
    Dynarray.push d (i * i)
  done;
  check_int "length" 100 (Dynarray.length d);
  for i = 0 to 99 do
    check_int "get" (i * i) (Dynarray.get d i)
  done

let test_pop_lifo () =
  let d = Dynarray.of_list [ 1; 2; 3 ] in
  check_int "pop 3" 3 (Dynarray.pop d);
  check_int "pop 2" 2 (Dynarray.pop d);
  check_int "length after pops" 1 (Dynarray.length d);
  check_int "pop 1" 1 (Dynarray.pop d);
  check_bool "empty" true (Dynarray.is_empty d)

let test_pop_empty_raises () =
  Alcotest.check_raises "pop on empty" (Invalid_argument "Dynarray.pop: empty")
    (fun () -> ignore (Dynarray.pop (Dynarray.create () : int Dynarray.t)))

let test_get_out_of_bounds () =
  let d = Dynarray.of_list [ 1 ] in
  check_bool "raises" true
    (try
       ignore (Dynarray.get d 1);
       false
     with Invalid_argument _ -> true)

let test_clear_reuse () =
  let d = Dynarray.create () in
  Dynarray.push d 1;
  Dynarray.push d 2;
  Dynarray.clear d;
  check_bool "empty after clear" true (Dynarray.is_empty d);
  Dynarray.push d 7;
  check_int "reusable" 7 (Dynarray.get d 0)

let test_set () =
  let d = Dynarray.of_list [ 1; 2; 3 ] in
  Dynarray.set d 1 42;
  Alcotest.(check (list int)) "set" [ 1; 42; 3 ] (Dynarray.to_list d)

let test_make () =
  let d = Dynarray.make 4 9 in
  Alcotest.(check (list int)) "make" [ 9; 9; 9; 9 ] (Dynarray.to_list d)

let test_last () =
  let d = Dynarray.of_list [ 5; 6 ] in
  check_int "last" 6 (Dynarray.last d)

let test_iter_order () =
  let d = Dynarray.of_list [ 3; 1; 4 ] in
  let acc = ref [] in
  Dynarray.iter (fun x -> acc := x :: !acc) d;
  Alcotest.(check (list int)) "iter order" [ 4; 1; 3 ] !acc

let test_iteri () =
  let d = Dynarray.of_list [ 10; 20 ] in
  let acc = ref [] in
  Dynarray.iteri (fun i x -> acc := (i, x) :: !acc) d;
  Alcotest.(check (list (pair int int))) "iteri" [ (1, 20); (0, 10) ] !acc

let test_fold () =
  let d = Dynarray.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Dynarray.fold_left ( + ) 0 d)

let test_sort () =
  let d = Dynarray.of_list [ 3; 1; 2 ] in
  Dynarray.sort compare d;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Dynarray.to_list d)

let test_exists () =
  let d = Dynarray.of_list [ 1; 3; 5 ] in
  check_bool "exists odd" true (Dynarray.exists (fun x -> x = 3) d);
  check_bool "no even" false (Dynarray.exists (fun x -> x mod 2 = 0) d)

let test_to_array_detached () =
  let d = Dynarray.of_list [ 1; 2 ] in
  let a = Dynarray.to_array d in
  a.(0) <- 99;
  check_int "original unchanged" 1 (Dynarray.get d 0)

let prop_dynarray_mirrors_list =
  QCheck.Test.make ~count:200 ~name:"dynarray push mirrors list"
    QCheck.(list small_int)
    (fun l ->
      let d = Dynarray.create () in
      List.iter (Dynarray.push d) l;
      Dynarray.to_list d = l)

(* ------------------------------------------------------------------ *)
(* Bytesize                                                            *)
(* ------------------------------------------------------------------ *)

let test_bytes_of_words () =
  check_int "words to bytes" 80 (Bytesize.bytes_of_words 10)

let test_int_array_words () =
  check_int "int array words" 11 (Bytesize.words_per_int_array 10)

let test_string_bytes_positive () =
  check_bool "non-empty string accounted" true (Bytesize.string_bytes "abc" >= 16)

let test_pp_units () =
  Alcotest.(check string) "bytes" "512 B" (Bytesize.to_string 512);
  Alcotest.(check string) "kb" "4.0 KB" (Bytesize.to_string 4096);
  Alcotest.(check string) "mb" "2.0 MB" (Bytesize.to_string (2 * 1024 * 1024))

(* ------------------------------------------------------------------ *)
(* Varint                                                              *)
(* ------------------------------------------------------------------ *)

module Varint = Faerie_util.Varint

let test_varint_known_encodings () =
  let enc n =
    let b = Buffer.create 8 in
    Varint.write b n;
    Buffer.contents b
  in
  Alcotest.(check string) "0" "\x00" (enc 0);
  Alcotest.(check string) "127" "\x7f" (enc 127);
  Alcotest.(check string) "128" "\x80\x01" (enc 128);
  Alcotest.(check string) "300" "\xac\x02" (enc 300)

let test_varint_negative_rejected () =
  check_bool "raises" true
    (try
       Varint.write (Buffer.create 4) (-1);
       false
     with Invalid_argument _ -> true)

let test_varint_truncated () =
  check_bool "truncated varint" true
    (try
       ignore (Varint.read (Varint.reader "\x80"));
       false
     with Varint.Malformed _ -> true);
  check_bool "truncated string" true
    (try
       ignore (Varint.read_string (Varint.reader "\x05ab"));
       false
     with Varint.Malformed _ -> true)

let test_varint_expect () =
  let r = Varint.reader "MAGICrest" in
  Varint.expect r "MAGIC";
  check_int "pos" 5 (Varint.pos r);
  check_bool "mismatch raises" true
    (try
       Varint.expect r "nope";
       false
     with Varint.Malformed _ -> true)

let prop_varint_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"varint roundtrip"
    QCheck.(list (map abs small_signed_int))
    (fun ns ->
      let b = Buffer.create 64 in
      List.iter (Varint.write b) ns;
      let r = Varint.reader (Buffer.contents b) in
      List.for_all (fun n -> Varint.read r = n) ns && Varint.at_end r)

let prop_varint_large_roundtrip =
  QCheck.Test.make ~count:500 ~name:"varint roundtrip (large ints)"
    QCheck.(map abs int)
    (fun n ->
      let b = Buffer.create 10 in
      Varint.write b n;
      Varint.read (Varint.reader (Buffer.contents b)) = n)

let prop_varint_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"string roundtrip"
    QCheck.(small_list string)
    (fun ss ->
      let b = Buffer.create 64 in
      List.iter (Varint.write_string b) ss;
      let r = Varint.reader (Buffer.contents b) in
      List.for_all (fun s -> String.equal (Varint.read_string r) s) ss)

let test_fnv1a_distinguishes () =
  check_bool "deterministic" true (Varint.fnv1a "abc" = Varint.fnv1a "abc");
  check_bool "order sensitive" true (Varint.fnv1a "ab" <> Varint.fnv1a "ba");
  check_bool "non-negative" true (Varint.fnv1a "anything" >= 0)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Faerie_util.Json

let test_json_print () =
  Alcotest.(check string)
    "composite value"
    {|{"a":1,"b":[true,null,"x\n"],"c":{"d":0.5}}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Num 1.);
            ( "b",
              Json.List [ Json.Bool true; Json.Null; Json.Str "x\n" ] );
            ("c", Json.Obj [ ("d", Json.Num 0.5) ]);
          ]));
  Alcotest.(check string)
    "integral floats print as ints" {|[3,-3,300000]|}
    (Json.to_string (Json.List [ Json.Num 3.; Json.Num (-3.); Json.Num 3e5 ]));
  Alcotest.(check string)
    "non-finite numbers become null" {|[null,null]|}
    (Json.to_string (Json.List [ Json.Num Float.nan; Json.Num Float.infinity ]));
  (* The number rule: digits for integral values below 2^53, else the
     first of %.15g/%.16g/%.17g that reads back as the same double. *)
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) want want (Json.to_string (Json.Num f)))
    [
      (0.1, "0.1");
      (0.99, "0.99");
      (1. /. 3., "0.3333333333333333");
      (0.1 +. 0.2, "0.30000000000000004");
      (2e15, "2000000000000000");
      (-0., "-0");
      (0., "0");
      (-7., "-7");
      (0x1p53 -. 1., "9007199254740991");
      (-.(0x1p53 -. 1.), "-9007199254740991");
    ];
  Alcotest.(check string)
    "exact integers print digit for digit" {|[1729000000123456789,-9223372036854775808]|}
    (Json.to_string
       (Json.List [ Json.Int 1_729_000_000_123_456_789L; Json.Int Int64.min_int ]));
  check_bool "an integer a double cannot hold parses exact" true
    (Json.of_string "1729000000123456789"
    = Ok (Json.Int 1_729_000_000_123_456_789L))

let test_json_parse () =
  check_bool "round-trip"
    true
    (let v =
       Json.Obj
         [
           ("id", Json.Str "a\"b\\c\n");
           ("n", Json.Num 42.);
           ("xs", Json.List [ Json.Num 1.5; Json.Bool false; Json.Null ]);
         ]
     in
     Json.of_string (Json.to_string v) = Ok v);
  check_bool "unicode escapes decode to UTF-8" true
    (Json.of_string {|"é😀"|} = Ok (Json.Str "\xc3\xa9\xf0\x9f\x98\x80"));
  check_bool "whitespace tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Num 1.; Json.Num 2. ]) ]));
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_accessors () =
  let j =
    match Json.of_string {|{"s":"x","n":3,"b":true,"xs":[1],"o":{"k":0}}|} with
    | Ok j -> j
    | Error e -> Alcotest.failf "parse: %s" e
  in
  check_bool "member + to_str" true
    (Option.bind (Json.member "s" j) Json.to_str = Some "x");
  check_bool "member + to_int" true
    (Option.bind (Json.member "n" j) Json.to_int = Some 3);
  check_bool "member + to_bool" true
    (Option.bind (Json.member "b" j) Json.to_bool = Some true);
  check_bool "member + to_list" true
    (Option.bind (Json.member "xs" j) Json.to_list = Some [ Json.Num 1. ]);
  check_bool "missing member" true (Json.member "zz" j = None);
  check_bool "kind mismatch is None" true
    (Option.bind (Json.member "s" j) Json.to_int = None)

let prop_json_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Num (float_of_int i)) small_signed_int;
                (* arbitrary finite floats *)
                map (fun f -> Json.Num (if Float.is_finite f then f else 0.)) float;
                (* integral values from 1e15 up, past 2^53 *)
                map (fun i -> Json.Num (1e15 +. float_of_int i)) nat;
                map
                  (fun (m, k) -> Json.Num (float_of_int m *. (10. ** float_of_int k)))
                  (pair (int_range 1 999_999) (int_range 15 25));
                (* subnormals *)
                map
                  (fun i -> Json.Num (Float.ldexp (float_of_int i) (-1074)))
                  (int_range 1 ((1 lsl 52) - 1));
                return (Json.Num (-0.));
                (* odd integers past 2^53, which no double holds *)
                map (fun k -> Json.Int (Int64.add 0x20000000000001L (Int64.of_int (2 * k)))) nat;
                map (fun s -> Json.Str s) small_string;
              ]
          in
          if n <= 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair small_string (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~count:300 ~name:"json print/parse roundtrip"
    (QCheck.make gen)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_util"
    [
      ( "xorshift",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed zero ok" `Quick test_seed_zero_ok;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "int in bounds" `Quick test_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid_bound;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "float in bounds" `Quick test_float_in_bounds;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "shuffle is permutation" `Quick
            test_shuffle_permutation;
        ] );
      ( "dynarray",
        [
          Alcotest.test_case "push/get" `Quick test_push_get;
          Alcotest.test_case "pop lifo" `Quick test_pop_lifo;
          Alcotest.test_case "pop empty raises" `Quick test_pop_empty_raises;
          Alcotest.test_case "get out of bounds" `Quick test_get_out_of_bounds;
          Alcotest.test_case "clear and reuse" `Quick test_clear_reuse;
          Alcotest.test_case "set" `Quick test_set;
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "last" `Quick test_last;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "iteri" `Quick test_iteri;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "to_array detached" `Quick test_to_array_detached;
          q prop_dynarray_mirrors_list;
        ] );
      ( "bytesize",
        [
          Alcotest.test_case "bytes_of_words" `Quick test_bytes_of_words;
          Alcotest.test_case "int array words" `Quick test_int_array_words;
          Alcotest.test_case "string bytes" `Quick test_string_bytes_positive;
          Alcotest.test_case "pp units" `Quick test_pp_units;
        ] );
      ( "varint",
        [
          Alcotest.test_case "known encodings" `Quick test_varint_known_encodings;
          Alcotest.test_case "negative rejected" `Quick test_varint_negative_rejected;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
          Alcotest.test_case "expect" `Quick test_varint_expect;
          Alcotest.test_case "fnv1a" `Quick test_fnv1a_distinguishes;
          q prop_varint_roundtrip;
          q prop_varint_large_roundtrip;
          q prop_varint_string_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          q prop_json_roundtrip;
        ] );
    ]
