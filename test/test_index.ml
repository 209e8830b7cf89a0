(* Tests for Faerie_index: entities, dictionary, inverted index. *)

module Tk = Faerie_tokenize
module Ix = Faerie_index
module Entity = Ix.Entity
module Dictionary = Ix.Dictionary
module Inverted_index = Ix.Inverted_index

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let paper_entities =
  [ "kaushik ch"; "chakrabarti"; "chaudhuri"; "venkatesh"; "surajit ch" ]

let gram_dict () = Dictionary.create ~mode:(Tk.Document.Gram 2) paper_entities

let word_dict () =
  Dictionary.create ~mode:Tk.Document.Word
    [ "dong xin"; "surajit chaudhuri"; "dong" ]

(* ------------------------------------------------------------------ *)
(* Entity / Dictionary                                                 *)
(* ------------------------------------------------------------------ *)

let test_paper_gram_counts () =
  (* Table 1: |e| with q = 2 is 9, 10, 8, 8, 9. *)
  let d = gram_dict () in
  Alcotest.(check (list int))
    "gram counts" [ 9; 10; 8; 8; 9 ]
    (Array.to_list (Array.map Entity.n_tokens (Dictionary.entities d)))

let test_entity_fields () =
  let d = word_dict () in
  let e = Dictionary.entity d 1 in
  check_str "raw" "surajit chaudhuri" e.Entity.raw;
  check_str "text normalized" "surajit chaudhuri" e.Entity.text;
  check_int "tokens" 2 (Entity.n_tokens e);
  check_int "id" 1 e.Entity.id

let test_entity_sorted_and_distinct () =
  let d =
    Dictionary.create ~mode:Tk.Document.Word [ "b a b" ]
  in
  let e = Dictionary.entity d 0 in
  (* interning order: b = 0, a = 1 *)
  Alcotest.(check (array int)) "sorted multiset" [| 0; 0; 1 |] e.Entity.sorted_tokens;
  Alcotest.(check (array int)) "distinct" [| 0; 1 |] e.Entity.distinct_tokens

let test_dictionary_shared_tokens () =
  let d = word_dict () in
  let e0 = Dictionary.entity d 0 and e2 = Dictionary.entity d 2 in
  check_int "same token id for dong" e0.Entity.tokens.(0) e2.Entity.tokens.(0)

let test_dictionary_unknown_id () =
  let d = word_dict () in
  check_bool "raises" true
    (try
       ignore (Dictionary.entity d 99);
       false
     with Invalid_argument _ -> true)

let test_untokenizable () =
  let d = Dictionary.create ~mode:(Tk.Document.Gram 4) [ "abc"; "abcdef"; "x" ] in
  Alcotest.(check (list int)) "short entities" [ 0; 2 ] (Dictionary.untokenizable d)

let test_untokenizable_empty_in_word_mode () =
  let d = Dictionary.create ~mode:Tk.Document.Word [ "!!!"; "ok" ] in
  Alcotest.(check (list int)) "no-token entity" [ 0 ] (Dictionary.untokenizable d)

let test_max_entity_tokens () =
  let d = gram_dict () in
  check_int "max |e|" 10 (Dictionary.max_entity_tokens d)

let test_tokenize_document_mode () =
  let d = gram_dict () in
  let doc = Dictionary.tokenize_document d "chaudhuri" in
  check_bool "gram mode doc" true (Tk.Document.mode doc = Tk.Document.Gram 2);
  check_int "grams" 8 (Tk.Document.n_tokens doc)

(* ------------------------------------------------------------------ *)
(* Inverted index                                                      *)
(* ------------------------------------------------------------------ *)

let plist idx tok = Inverted_index.Postings.to_array (Inverted_index.postings idx tok)

let test_postings_paper () =
  (* Figure 1: gram "ch" appears in e1, e2, e3, e5 (0-based ids 0,1,2,4);
     gram "ka" in e1, e4 (0-based 0,3); gram "ve" in e4 only. *)
  let d = gram_dict () in
  let idx = Inverted_index.build d in
  let interner = Dictionary.interner d in
  let postings g =
    match Tk.Interner.find_opt interner g with
    | Some tok -> plist idx tok
    | None -> [||]
  in
  Alcotest.(check (array int)) "ch list" [| 0; 1; 2; 4 |] (postings "ch");
  Alcotest.(check (array int)) "ka list" [| 0; 3 |] (postings "ka");
  Alcotest.(check (array int)) "ve list" [| 3 |] (postings "ve")

let test_postings_sorted_dense () =
  let d = gram_dict () in
  let idx = Inverted_index.build d in
  let n = Tk.Interner.size (Dictionary.interner d) in
  for tok = 0 to n - 1 do
    let l = plist idx tok in
    Array.iteri
      (fun i e -> if i > 0 then check_bool "ascending" true (l.(i - 1) < e))
      l
  done

let test_postings_missing_token () =
  let d = gram_dict () in
  let idx = Inverted_index.build d in
  check_bool "missing empty" true
    (Inverted_index.Postings.is_empty (Inverted_index.postings idx Tk.Span.missing));
  Alcotest.(check (array int)) "missing" [||] (plist idx Tk.Span.missing);
  Alcotest.(check (array int)) "out of range" [||] (plist idx 99999)

let test_duplicate_tokens_one_posting () =
  (* An entity with a duplicated token appears once in the list. *)
  let d = Dictionary.create ~mode:Tk.Document.Word [ "a b a" ] in
  let idx = Inverted_index.build d in
  let tok = Option.get (Tk.Interner.find_opt (Dictionary.interner d) "a") in
  Alcotest.(check (array int)) "one posting" [| 0 |] (plist idx tok)

let test_n_postings () =
  let d = Dictionary.create ~mode:Tk.Document.Word [ "a b"; "b c" ] in
  let idx = Inverted_index.build d in
  check_int "postings" 4 (Inverted_index.n_postings idx);
  check_int "lists" 3 (Inverted_index.n_lists idx)

let test_postings_cursor_agrees () =
  (* length/iter/fold are three views of the same block. *)
  let d = gram_dict () in
  let idx = Inverted_index.build d in
  for tok = 0 to Inverted_index.n_tokens idx - 1 do
    let p = Inverted_index.postings idx tok in
    let arr = Inverted_index.Postings.to_array p in
    check_int "length" (Array.length arr) (Inverted_index.Postings.length p);
    let via_iter = ref [] in
    Inverted_index.Postings.iter (fun e -> via_iter := e :: !via_iter) p;
    Alcotest.(check (list int))
      "iter order" (Array.to_list arr)
      (List.rev !via_iter);
    let via_fold =
      Inverted_index.Postings.fold (fun acc e -> e :: acc) [] p
    in
    Alcotest.(check (list int)) "fold order" (Array.to_list arr) (List.rev via_fold)
  done

let test_decode_document () =
  let d = word_dict () in
  let idx = Inverted_index.build d in
  let doc = Dictionary.tokenize_document d "unknown dong" in
  let ws = Inverted_index.Workspace.create () in
  let buf, offs, lens = Inverted_index.decode_document idx ws doc in
  check_int "unknown token empty" 0 lens.(0);
  Alcotest.(check (array int)) "dong in e0,e2" [| 0; 2 |]
    (Array.sub buf offs.(1) lens.(1));
  (* A repeated token decodes to the same (memoized) buffer segment. *)
  let doc2 = Dictionary.tokenize_document d "dong x dong" in
  let buf, offs, lens = Inverted_index.decode_document idx ws doc2 in
  check_int "memoized offset" offs.(0) offs.(2);
  Alcotest.(check (array int)) "repeat decodes alike" [| 0; 2 |]
    (Array.sub buf offs.(2) lens.(2))

let test_blocks_roundtrip () =
  (* raw_blocks → of_blocks reproduces every list, count and size. *)
  let d = gram_dict () in
  let idx = Inverted_index.build d in
  let blob, offs, counts = Inverted_index.raw_blocks idx in
  let idx' = Inverted_index.of_blocks d ~blob ~offs ~counts in
  check_int "n_postings" (Inverted_index.n_postings idx)
    (Inverted_index.n_postings idx');
  check_int "n_lists" (Inverted_index.n_lists idx) (Inverted_index.n_lists idx');
  for tok = 0 to Inverted_index.n_tokens idx - 1 do
    Alcotest.(check (array int)) "list" (plist idx tok) (plist idx' tok)
  done

let test_heap_bytes_positive_and_grows () =
  let d1 = Dictionary.create ~mode:(Tk.Document.Gram 2) [ "abcd" ] in
  let d2 = gram_dict () in
  let b1 = Inverted_index.heap_bytes (Inverted_index.build d1) in
  let b2 = Inverted_index.heap_bytes (Inverted_index.build d2) in
  check_bool "positive" true (b1 > 0);
  check_bool "bigger dictionary, bigger index" true (b2 > b1)

(* Every (entity, distinct token) pair is represented exactly once. *)
let prop_index_complete =
  let arb =
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 10)
        (string_gen_of_size (QCheck.Gen.int_range 1 6) (QCheck.Gen.oneofl [ 'a'; 'b'; 'c'; ' ' ])))
  in
  QCheck.Test.make ~count:300 ~name:"inverted index contains exactly the distinct tokens"
    arb
    (fun entities ->
      let d = Dictionary.create ~mode:Tk.Document.Word entities in
      let idx = Inverted_index.build d in
      Array.for_all
        (fun e ->
          Array.for_all
            (fun tok -> Array.mem e.Entity.id (plist idx tok))
            e.Entity.distinct_tokens)
        (Dictionary.entities d)
      &&
      let total_distinct =
        Array.fold_left
          (fun acc e -> acc + Array.length e.Entity.distinct_tokens)
          0 (Dictionary.entities d)
      in
      Inverted_index.n_postings idx = total_distinct)

(* Delta+varint blocks survive a decode→re-adopt round trip verbatim. *)
let prop_blocks_roundtrip =
  let arb =
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 12)
        (string_gen_of_size (QCheck.Gen.int_range 1 8)
           (QCheck.Gen.oneofl [ 'a'; 'b'; 'c'; 'd'; ' ' ])))
  in
  QCheck.Test.make ~count:200 ~name:"posting blocks roundtrip through raw_blocks"
    arb
    (fun entities ->
      let d = Dictionary.create ~mode:Tk.Document.Word entities in
      let idx = Inverted_index.build d in
      let blob, offs, counts = Inverted_index.raw_blocks idx in
      let idx' = Inverted_index.of_blocks d ~blob ~offs ~counts in
      let n = Inverted_index.n_tokens idx in
      Inverted_index.n_tokens idx' = n
      && Inverted_index.n_postings idx' = Inverted_index.n_postings idx
      && Array.for_all
           (fun tok -> plist idx tok = plist idx' tok)
           (Array.init n Fun.id))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "faerie_index"
    [
      ( "dictionary",
        [
          Alcotest.test_case "paper gram counts" `Quick test_paper_gram_counts;
          Alcotest.test_case "entity fields" `Quick test_entity_fields;
          Alcotest.test_case "sorted/distinct" `Quick test_entity_sorted_and_distinct;
          Alcotest.test_case "shared tokens" `Quick test_dictionary_shared_tokens;
          Alcotest.test_case "unknown id" `Quick test_dictionary_unknown_id;
          Alcotest.test_case "untokenizable grams" `Quick test_untokenizable;
          Alcotest.test_case "untokenizable words" `Quick
            test_untokenizable_empty_in_word_mode;
          Alcotest.test_case "max tokens" `Quick test_max_entity_tokens;
          Alcotest.test_case "tokenize document" `Quick test_tokenize_document_mode;
        ] );
      ( "inverted_index",
        [
          Alcotest.test_case "paper postings" `Quick test_postings_paper;
          Alcotest.test_case "sorted lists" `Quick test_postings_sorted_dense;
          Alcotest.test_case "missing token" `Quick test_postings_missing_token;
          Alcotest.test_case "duplicate tokens" `Quick test_duplicate_tokens_one_posting;
          Alcotest.test_case "posting counts" `Quick test_n_postings;
          Alcotest.test_case "postings cursor" `Quick test_postings_cursor_agrees;
          Alcotest.test_case "decode document" `Quick test_decode_document;
          Alcotest.test_case "blocks roundtrip" `Quick test_blocks_roundtrip;
          Alcotest.test_case "heap bytes" `Quick test_heap_bytes_positive_and_grows;
          q prop_index_complete;
          q prop_blocks_roundtrip;
        ] );
    ]
