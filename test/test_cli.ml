(* End-to-end tests of the faerie CLI binary: each subcommand is run as a
   subprocess against a temporary dictionary/corpus. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The CLI binary is declared as a test dependency and sits next to this
   test executable in the build tree (resolve it from the executable path
   so the test works both under `dune runtest` and `dune exec`). *)
let cli =
  let test_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.dirname test_dir) "bin") "faerie_cli.exe"

let run_cli args =
  let cmd = Filename.quote_command cli args in
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  (status, lines)

let with_temp_dir f =
  let dir = Filename.temp_file "faerie_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let paper_dict_file dir =
  let path = Filename.concat dir "dict.txt" in
  write_file path "kaushik ch\nchakrabarti\nchaudhuri\nvenkatesh\nsurajit ch\n";
  path

let paper_doc_file dir =
  let path = Filename.concat dir "doc.txt" in
  write_file path
    "an efficient filter for approximate membership checking. venkaee shga \
     kamunshik kabarati, dong xin, surauijt chadhurisigmod.";
  path

let test_extract_finds_paper_matches () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let status, lines =
        run_cli [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; doc ]
      in
      check_bool "exit 0" true (status = Unix.WEXITED 0);
      check_bool "several matches" true (List.length lines >= 3);
      check_bool "finds venkaee sh" true
        (List.exists
           (fun l ->
             String.length l > 0
             && Str.string_match (Str.regexp ".*venkaee sh.*") l 0)
           lines))

let test_extract_top_k () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let status, lines =
        run_cli [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--top"; "2"; doc ]
      in
      check_bool "exit 0" true (status = Unix.WEXITED 0);
      check_int "exactly k lines" 2 (List.length lines))

let test_extract_select_non_overlapping () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let _, raw = run_cli [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; doc ] in
      let _, selected =
        run_cli [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--select"; doc ]
      in
      (* "surauijt ch" overlaps the "chadhuri" cluster, so selection keeps
         one span per region: venkatesh's plus the better of the two. *)
      check_bool "selection shrinks output" true
        (List.length selected < List.length raw && List.length selected >= 2))

let test_index_roundtrip_cli () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let idx = Filename.concat dir "dict.fidx" in
      let status, _ =
        run_cli [ "index"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "-o"; idx ]
      in
      check_bool "index exit 0" true (status = Unix.WEXITED 0);
      check_bool "index file written" true (Sys.file_exists idx);
      let _, from_dict = run_cli [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; doc ] in
      let _, from_index = run_cli [ "extract"; "-x"; idx; "-s"; "ed=2"; doc ] in
      (* Output lines are identical except the first column (file name). *)
      let strip l = String.concat "\t" (List.tl (String.split_on_char '\t' l)) in
      Alcotest.(check (list string))
        "same matches" (List.map strip from_dict) (List.map strip from_index))

let test_stats_reports_counts () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let status, lines = run_cli [ "stats"; "-d"; dict; "-s"; "ed=2"; "-q"; "2" ] in
      check_bool "exit 0" true (status = Unix.WEXITED 0);
      check_bool "entity count reported" true
        (List.exists (fun l -> Str.string_match (Str.regexp "entities: *5") l 0) lines))

let test_gen_writes_corpus () =
  with_temp_dir (fun dir ->
      let out = Filename.concat dir "corpus" in
      let status, _ =
        run_cli
          [ "gen"; "--profile"; "dblp"; "--entities"; "50"; "--documents"; "3";
            "-o"; out ]
      in
      check_bool "exit 0" true (status = Unix.WEXITED 0);
      check_bool "entities.txt" true
        (Sys.file_exists (Filename.concat out "entities.txt"));
      check_int "3 documents" 3
        (Array.length (Sys.readdir (Filename.concat out "docs"))))

let test_missing_source_fails () =
  let status, _ = run_cli [ "extract"; "-s"; "ed=1"; "/dev/null" ] in
  check_bool "non-zero exit" true (status <> Unix.WEXITED 0)

let test_bad_sim_spec_fails () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let status, _ = run_cli [ "extract"; "-d"; dict; "-s"; "nonsense"; "/dev/null" ] in
      check_bool "non-zero exit" true (status <> Unix.WEXITED 0))

let test_extract_metrics_file () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let metrics_file = Filename.concat dir "metrics.jsonl" in
      let trace_file = Filename.concat dir "trace.jsonl" in
      let status, _ =
        run_cli
          [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2";
            "--metrics=" ^ metrics_file; "--trace=" ^ trace_file; doc ]
      in
      check_int "exit 0" 0 (match status with Unix.WEXITED n -> n | _ -> -1);
      let read_lines path =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        go []
      in
      let metrics = read_lines metrics_file in
      let has re = List.exists (fun l ->
          try ignore (Str.search_forward (Str.regexp re) l 0); true
          with Not_found -> false)
          metrics
      in
      check_bool "docs_processed counted" true
        (has "\"name\":\"docs_processed\",\"value\":1");
      check_bool "candidates counted" true
        (has "\"name\":\"candidates_generated\",\"value\":[1-9]");
      check_bool "every line is an object" true
        (List.for_all
           (fun l ->
             String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}')
           metrics);
      let traces = read_lines trace_file in
      check_bool "trace has filter span" true
        (List.exists
           (fun l ->
             try
               ignore (Str.search_forward (Str.regexp "\"name\":\"filter\"") l 0);
               true
             with Not_found -> false)
           traces))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let has_match re lines =
  List.exists
    (fun l ->
      try
        ignore (Str.search_forward (Str.regexp re) l 0);
        true
      with Not_found -> false)
    lines

let exit_code = function Unix.WEXITED n -> n | _ -> -1

let test_explain_waterfall () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let status, lines =
        run_cli [ "explain"; dict; doc; "-s"; "ed=2"; "-q"; "2" ]
      in
      check_int "exit 0" 0 (exit_code status);
      check_bool "waterfall header" true
        (has_match "filter-cascade waterfall" lines);
      check_bool "heap stage reported" true
        (has_match "entities streamed off the heap" lines);
      check_bool "verify stage reported" true
        (has_match "verified matches" lines))

let test_explain_jsonl () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let out = Filename.concat dir "events.jsonl" in
      (* Positionals first: --jsonl with no '=' would swallow the next
         token as its optional value. *)
      let status, _ =
        run_cli
          [ "explain"; dict; doc; "-s"; "ed=2"; "-q"; "2"; "--jsonl=" ^ out ]
      in
      check_int "exit 0" 0 (exit_code status);
      let events = read_lines out in
      check_bool "events recorded" true (List.length events > 3);
      (match events with
      | first :: _ ->
          Alcotest.(check string) "opens with the doc marker"
            "{\"ev\":\"doc\",\"doc_id\":0}" first
      | [] -> Alcotest.fail "empty event dump");
      check_bool "every line is a tagged event" true
        (List.for_all
           (fun l ->
             String.length l > 8
             && String.sub l 0 7 = "{\"ev\":\""
             && l.[String.length l - 1] = '}')
           events);
      check_bool "candidates audited" true
        (has_match "\"ev\":\"candidate\"" events);
      check_bool "filter completion audited" true
        (has_match "\"ev\":\"filter_done\"" events);
      check_bool "verification audited" true
        (has_match "\"ev\":\"verify\"" events))

let test_extract_explain_file () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let out = Filename.concat dir "explain.jsonl" in
      let status, lines =
        run_cli
          [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2";
            "--explain=" ^ out; doc ]
      in
      check_int "exit 0" 0 (exit_code status);
      check_bool "matches still printed" true (List.length lines >= 3);
      let events = read_lines out in
      check_bool "doc event present" true (has_match "\"ev\":\"doc\"" events);
      check_bool "verify events present" true
        (has_match "\"ev\":\"verify\"" events))

let test_extract_verifier_flag () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      (* The engine choice must not change results, and the explain log
         must echo it. *)
      let run verifier =
        let out = Filename.concat dir ("explain_" ^ verifier ^ ".jsonl") in
        let status, lines =
          run_cli
            [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2";
              "--verifier"; verifier; "--explain=" ^ out; doc ]
        in
        check_int ("exit 0 " ^ verifier) 0 (exit_code status);
        check_bool ("choice echoed " ^ verifier) true
          (has_match
             (Printf.sprintf "\"ev\":\"verifier\",\"choice\":\"%s\"" verifier)
             (read_lines out));
        lines
      in
      let myers = run "myers" and banded = run "banded" and auto = run "auto" in
      check_bool "myers == banded results" true (myers = banded);
      check_bool "auto == banded results" true (auto = banded);
      let status, _ =
        run_cli
          [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2";
            "--verifier"; "bogus"; doc ]
      in
      check_bool "unknown engine rejected" true (exit_code status <> 0))

let test_extract_metrics_prom () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let out = Filename.concat dir "metrics.prom" in
      let status, _ =
        run_cli
          [ "extract"; "-d"; dict; "-s"; "ed=2"; "-q"; "2";
            "--metrics=" ^ out; "--metrics-format=prom"; doc ]
      in
      check_int "exit 0" 0 (exit_code status);
      let lines = read_lines out in
      check_bool "type comments present" true
        (has_match "^# TYPE docs_processed counter" lines);
      check_bool "counter sample present" true
        (has_match "^docs_processed 1$" lines);
      check_bool "histogram cells present" true
        (has_match "_bucket{le=\"\\+Inf\"}" lines))

(* An unprofiled snapshot: no allocation percentiles, "gc":null. *)
let bench_snapshot ~wall_s =
  Printf.sprintf
    "{\"schema\":\"faerie-bench-v2\",\"git_rev\":\"test\",\"scale\":1,\"ocaml\":\"5.1.1\",\"exhibits\":[\n\
     {\"name\":\"smoke\",\"wall_s\":%s,\"tokens\":100,\"tokens_per_s\":100,\"candidates\":10,\"pruned\":2,\"verify_calls\":8,\"matches\":3,\"doc_wall_ns\":{\"p50\":null,\"p90\":null,\"p99\":null},\"alloc_per_doc\":{\"p50\":null,\"p90\":null,\"p99\":null},\"gc\":null}\n\
     ]}\n"
    wall_s

let test_regress_exit_codes () =
  with_temp_dir (fun dir ->
      let file name contents =
        let path = Filename.concat dir name in
        write_file path contents;
        path
      in
      let baseline = file "base.json" (bench_snapshot ~wall_s:"1.0") in
      let same = file "same.json" (bench_snapshot ~wall_s:"1.0") in
      let slow = file "slow.json" (bench_snapshot ~wall_s:"2.5") in
      let bad = file "bad.json" "this is not a bench snapshot" in
      let status, lines = run_cli [ "regress"; baseline; same ] in
      check_int "identical snapshot passes" 0 (exit_code status);
      check_bool "PASS line printed" true (has_match "^PASS" lines);
      let status, lines = run_cli [ "regress"; baseline; slow ] in
      check_int "2.5x slowdown fails" 1 (exit_code status);
      check_bool "REGRESSED reported" true (has_match "REGRESSED" lines);
      let status, _ =
        run_cli [ "regress"; baseline; slow; "--max-ratio"; "3.0" ]
      in
      check_int "generous gate tolerates it" 0 (exit_code status);
      let status, _ = run_cli [ "regress"; baseline; bad ] in
      check_int "malformed snapshot exits 2" 2 (exit_code status))

(* v2 snapshot with a gc block; wall time fixed so only the allocation
   gate can fire. *)
let bench_snapshot_v2 ~minor_words =
  Printf.sprintf
    "{\"schema\":\"faerie-bench-v2\",\"git_rev\":\"test\",\"scale\":1,\"ocaml\":\"5.1.1\",\"exhibits\":[\n\
     {\"name\":\"smoke\",\"wall_s\":1.0,\"tokens\":100,\"tokens_per_s\":100,\"candidates\":10,\"pruned\":2,\"verify_calls\":8,\"matches\":3,\"doc_wall_ns\":{\"p50\":null,\"p90\":null,\"p99\":null},\"alloc_per_doc\":{\"p50\":1000,\"p90\":2000,\"p99\":null},\"gc\":{\"minor_words\":%s,\"promoted_words\":100,\"major_collections\":0,\"top_heap_bytes\":1048576,\"words_per_token\":120}}\n\
     ]}\n"
    minor_words

let test_regress_alloc_gate () =
  with_temp_dir (fun dir ->
      let file name contents =
        let path = Filename.concat dir name in
        write_file path contents;
        path
      in
      let baseline = file "base.json" (bench_snapshot_v2 ~minor_words:"100000") in
      let bloated = file "bloat.json" (bench_snapshot_v2 ~minor_words:"200000") in
      let no_gc = file "no_gc.json" (bench_snapshot ~wall_s:"1.0") in
      (* No alloc gate: a pure allocation regression passes the wall gate. *)
      let status, _ = run_cli [ "regress"; baseline; bloated ] in
      check_int "no gate ignores allocation" 0 (exit_code status);
      let status, lines =
        run_cli [ "regress"; baseline; bloated; "--max-alloc-ratio"; "1.5" ]
      in
      check_int "2x allocation fails the gate" 1 (exit_code status);
      check_bool "REGRESSED reported" true (has_match "REGRESSED" lines);
      let status, lines =
        run_cli [ "regress"; baseline; bloated; "--max-alloc-ratio"; "3.0" ]
      in
      check_int "generous alloc gate tolerates 2x" 0 (exit_code status);
      check_bool "PASS line printed" true (has_match "^PASS" lines);
      (* unprofiled baseline: nothing to gate against, even with the flag on. *)
      let status, _ =
        run_cli [ "regress"; no_gc; bloated; "--max-alloc-ratio"; "1.5" ]
      in
      check_int "unprofiled baseline exempt from alloc gate" 0 (exit_code status);
      (* gc present in baseline but absent in current: gate must fail. *)
      let status, _ =
        run_cli [ "regress"; baseline; no_gc; "--max-alloc-ratio"; "1.5" ]
      in
      check_int "vanished gc fails the gate" 1 (exit_code status))

let test_flame_profile () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir and doc = paper_doc_file dir in
      let folded = Filename.concat dir "prof.folded" in
      let status, lines =
        run_cli
          [ "flame"; dict; doc; "-s"; "ed=2"; "-q"; "2";
            "--folded=" ^ folded; "--top"; "10" ]
      in
      check_int "exit 0" 0 (exit_code status);
      check_bool "self-time table on stdout" true
        (has_match "extract_doc" lines);
      let stacks = read_lines folded in
      check_bool "folded file non-empty" true (stacks <> []);
      (* Every folded line is "frame(;frame)* SELF_NS". *)
      check_bool "folded line grammar" true
        (List.for_all
           (fun l ->
             Str.string_match
               (Str.regexp "^[a-z_]+\\(;[a-z_]+\\)* [0-9]+$")
               l 0)
           stacks);
      check_bool "root stack present" true
        (List.exists
           (fun l -> Str.string_match (Str.regexp "^extract_doc ") l 0)
           stacks);
      check_bool "nested stack present" true
        (has_match "^extract_doc;filter" stacks))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let fuzz =
  let test_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.dirname test_dir) "bin") "fuzz.exe"

let run_fuzz args =
  let cmd = Filename.quote_command fuzz args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  (status, lines)

(* Run the CLI with stdin redirected from a file, capturing stdout lines,
   stderr lines and the exit status. *)
let run_cli_io ~dir ~stdin_file args =
  let stderr_file = Filename.concat dir "serve-stderr.txt" in
  let cmd =
    Printf.sprintf "%s < %s 2> %s"
      (Filename.quote_command cli args)
      (Filename.quote stdin_file)
      (Filename.quote stderr_file)
  in
  let ic = Unix.open_process_in cmd in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = read [] in
  let status = Unix.close_process_in ic in
  (status, out, read_lines stderr_file)

let test_serve_ndjson_roundtrip () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let input = Filename.concat dir "input.ndjson" in
      write_file input
        ("{\"text\":\"surauijt chadhuri sigmod\",\"id\":\"d0\"}\n" ^ "\n"
       ^ "this is not json\n" ^ "{\"text\":\"venkaee shga spoke\"}\n");
      let status, out, err =
        run_cli_io ~dir ~stdin_file:input
          [ "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "2" ]
      in
      check_int "exit 0" 0 (exit_code status);
      (* Blank line skipped: 2 documents + 1 decode error = 3 responses. *)
      check_int "3 responses" 3 (List.length out);
      check_bool "decode error response" true
        (has_match {|"outcome":"error"|} out);
      check_bool "ok responses carry matches" true
        (has_match {|"outcome":"ok".*"matches":\[{"e":|} out);
      check_bool "id echoed" true (has_match {|"id":"d0"|} out);
      check_bool "generation 0 before any reload" true
        (has_match {|"gen":0|} out);
      check_bool "summary counts the 2 extracted docs" true
        (has_match {|"docs":2,"ok":2|} err);
      check_bool "summary reports no reloads" true
        (has_match {|"reloads":0,|} err);
      check_bool "summary embeds a metrics object" true
        (has_match {|"metrics":{"counters":{|} err))

(* One corpus served from one in-process pool and from a 2-shard cluster:
   a single worker answers in arrival order, and both modes list matches
   in the one served order, so stdout must be byte-identical. *)
let test_serve_single_equals_sharded () =
  with_temp_dir (fun dir ->
      let corpus = Filename.concat dir "corpus" in
      let status, _ =
        run_cli [ "gen"; "--entities"; "300"; "--documents"; "60"; "-o"; corpus ]
      in
      check_int "gen exit 0" 0 (exit_code status);
      let json_string s =
        let b = Buffer.create (String.length s + 2) in
        Buffer.add_char b '"';
        String.iter
          (function
            | ('"' | '\\') as c ->
                Buffer.add_char b '\\';
                Buffer.add_char b c
            | c when Char.code c < 0x20 ->
                Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
            | c -> Buffer.add_char b c)
          s;
        Buffer.add_char b '"';
        Buffer.contents b
      in
      let docs = Filename.concat corpus "docs" in
      let input = Filename.concat dir "input.ndjson" in
      write_file input
        (String.concat ""
           (List.map
              (fun f ->
                let text =
                  In_channel.with_open_bin (Filename.concat docs f)
                    In_channel.input_all
                in
                Printf.sprintf "{\"text\":%s}\n" (json_string text))
              (List.sort compare (Array.to_list (Sys.readdir docs)))));
      let serve extra =
        let status, out, _ =
          run_cli_io ~dir ~stdin_file:input
            ([ "serve"; "-d"; Filename.concat corpus "entities.txt"; "-s";
               "ed=2"; "-q"; "2"; "--domains"; "1" ]
            @ extra)
        in
        check_int "serve exit 0" 0 (exit_code status);
        out
      in
      let single = serve [] in
      check_int "one response per document" 60 (List.length single);
      check_bool "matches found" true (has_match {|"matches":\[{"e":|} single);
      Alcotest.(check (list string))
        "single-process stdout == 2-shard stdout" single
        (serve [ "--shards"; "2" ]))

(* Admin ops share the request stream but are answered from the live
   registry without consuming a document ordinal: responses interleave in
   order, the summary still counts exactly the extracted documents, and
   the fault/ordinal schedule is untouched by however many op lines the
   client sends. *)
let test_serve_admin_ops () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let input = Filename.concat dir "input.ndjson" in
      write_file input
        ("{\"op\":\"stats\"}\n"
       ^ "{\"text\":\"surauijt chadhuri sigmod\",\"id\":\"d0\"}\n"
       ^ "{\"op\":\"health\"}\n"
       ^ "{\"op\":\"bogus\"}\n"
       ^ "{\"text\":\"venkaee shga spoke\"}\n"
       ^ "{\"op\":\"stats\"}\n");
      let status, out, err =
        run_cli_io ~dir ~stdin_file:input
          [ "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "2" ]
      in
      check_int "exit 0" 0 (exit_code status);
      check_int "6 responses (4 admin + 2 docs)" 6 (List.length out);
      check_bool "stats response carries the snapshot" true
        (has_match {|"op":"stats".*"metrics":{"counters":{|} out);
      (* Admin pulls don't barrier the pool, so in-stream snapshots race
         with in-flight documents; the post-drain summary snapshot is the
         deterministic one. *)
      check_bool "summary snapshot counts the processed docs" true
        (has_match {|"docs_processed":2|} err);
      check_bool "health reports the single-process shard up" true
        (has_match
           {|"op":"health","status":"ok","shards":\[{"shard":0,"up":true|}
           out);
      check_bool "unknown op is a structured error" true
        (has_match {|"outcome":"error".*unknown admin op|} out);
      check_bool "admin ops consumed no document ordinals" true
        (has_match {|"docs":2,"ok":2|} err);
      (* Prometheus format: the same pull renders exposition text. *)
      let status, out, _ =
        run_cli_io ~dir ~stdin_file:input
          [
            "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "2";
            "--metrics-format"; "prometheus";
          ]
      in
      check_int "prometheus run exit 0" 0 (exit_code status);
      check_bool "stats response renders exposition text" true
        (has_match {|"op":"stats".*"prometheus":".*# TYPE|} out))

(* --stats-interval-s: SIGALRM interrupts the blocked request read, the
   EINTR path emits a snapshot line to stderr and the read resumes with
   no byte lost. *)
let test_serve_stats_interval () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let stderr_file = Filename.concat dir "serve-stderr.txt" in
      let cmd =
        Printf.sprintf "%s 2> %s"
          (Filename.quote_command cli
             [
               "serve"; "-d"; dict; "-s"; "ed=2"; "--domains"; "1";
               "--stats-interval-s"; "1";
             ])
          (Filename.quote stderr_file)
      in
      let out, inp = Unix.open_process cmd in
      output_string inp "{\"text\":\"surauijt chadhuri\"}\n";
      flush inp;
      let r1 = input_line out in
      check_bool "request served" true
        (try
           ignore (Str.search_forward (Str.regexp {|"outcome":"ok"|}) r1 0);
           true
         with Not_found -> false);
      (* Two full periods while the server is parked in the read. *)
      Unix.sleepf 2.5;
      output_string inp "{\"text\":\"venkaee shga\"}\n";
      flush inp;
      ignore (input_line out);
      close_out inp;
      let status = Unix.close_process (out, inp) in
      check_int "serve exit 0" 0 (exit_code status);
      let err = read_lines stderr_file in
      let snapshots =
        List.filter
          (fun l ->
            try
              ignore (Str.search_forward (Str.regexp {|"op":"stats"|}) l 0);
              true
            with Not_found -> false)
          err
      in
      check_bool "periodic snapshots reached stderr" true
        (List.length snapshots >= 2);
      check_bool "summary still counts both docs" true
        (has_match {|"docs":2,"ok":2|} err))

let test_serve_quarantine_and_replay () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let input = Filename.concat dir "input.ndjson" in
      write_file input
        ("{\"text\":\"surauijt chadhuri\",\"id\":\"poison-a\"}\n"
       ^ "{\"text\":\"venkaee shga\"}\n");
      let quarantine = Filename.concat dir "quarantine.ndjson" in
      let status, out, err =
        run_cli_io ~dir ~stdin_file:input
          [
            "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "1";
            "--retries"; "1"; "--backoff-ms"; "0";
            "--quarantine"; quarantine;
            "--inject"; "7:supervisor_worker=1.0";
          ]
      in
      check_int "exit 0" 0 (exit_code status);
      (* Rate 1.0 on a transient site: every attempt dies, both documents
         end up quarantined rather than lost or plain-failed. *)
      check_int "both docs answered" 2 (List.length out);
      check_bool "responses say quarantined" true
        (List.for_all
           (fun l ->
             try
               ignore
                 (Str.search_forward
                    (Str.regexp {|"outcome":"quarantined"|})
                    l 0);
               true
             with Not_found -> false)
           out);
      check_bool "summary counts them" true (has_match {|"quarantined":2|} err);
      check_int "dead-letter file has one record per doc" 2
        (List.length (read_lines quarantine));
      (* The dead-letter file is a self-contained repro: fuzz.exe --replay
         must reproduce every record's failure. *)
      let status, lines =
        run_fuzz [ "--replay=" ^ quarantine; "--dict=" ^ dict ]
      in
      check_int "replay reproduces all records" 0 (exit_code status);
      check_bool "replay reports both records" true
        (has_match "all 2 records reproduce" lines))

let test_serve_hot_reload () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let idx = Filename.concat dir "dict.fidx" in
      let status, _ =
        run_cli [ "index"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "-o"; idx ]
      in
      check_int "index build exit 0" 0 (exit_code status);
      let stderr_file = Filename.concat dir "serve-stderr.txt" in
      let cmd =
        Printf.sprintf "%s 2> %s"
          (Filename.quote_command cli
             [ "serve"; "-x"; idx; "-s"; "ed=2"; "--domains"; "1" ])
          (Filename.quote stderr_file)
      in
      let out, inp = Unix.open_process cmd in
      output_string inp "{\"text\":\"surauijt chadhuri\"}\n";
      flush inp;
      let r1 = input_line out in
      check_bool "first response served from generation 0" true
        (try
           ignore (Str.search_forward (Str.regexp {|"gen":0|}) r1 0);
           true
         with Not_found -> false);
      (* Rewrite the snapshot and push its mtime forward; the server is
         parked in input_line, so the reload happens when the next request
         arrives. *)
      let status, _ =
        run_cli [ "index"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "-o"; idx ]
      in
      check_int "index rebuild exit 0" 0 (exit_code status);
      let future = Unix.gettimeofday () +. 10. in
      Unix.utimes idx future future;
      output_string inp "{\"text\":\"surauijt chadhuri\"}\n";
      flush inp;
      let r2 = input_line out in
      check_bool "second response served from generation 1" true
        (try
           ignore (Str.search_forward (Str.regexp {|"gen":1|}) r2 0);
           true
         with Not_found -> false);
      close_out inp;
      let status = Unix.close_process (out, inp) in
      check_int "serve exit 0" 0 (exit_code status);
      let err = read_lines stderr_file in
      check_bool "summary reports the reload" true
        (has_match {|"docs":2,"ok":2|} err && has_match {|"reloads":1,|} err))

(* Online mutation over a WAL: dict_add/dict_remove admin ops apply
   immediately and durably — a fresh process on the same --wal replays
   them, so the added entity keeps matching after a "crash". The add gets
   id 5 (first past the 5 base entities) in both processes, which pins
   deterministic replay ordering. *)
let test_serve_dict_mutation_wal () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let wal = Filename.concat dir "dict.wal" in
      let input = Filename.concat dir "input.ndjson" in
      write_file input
        ("{\"op\":\"dict_add\",\"entity\":\"dong xin\"}\n"
       ^ "{\"text\":\"talk by dong xin today\"}\n"
       ^ "{\"op\":\"dict_remove\",\"entity\":\"venkatesh\"}\n"
       ^ "{\"op\":\"health\"}\n");
      let status, out, _ =
        run_cli_io ~dir ~stdin_file:input
          [
            "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "1";
            "--wal"; wal;
          ]
      in
      check_int "exit 0" 0 (exit_code status);
      check_int "4 responses (3 admin + 1 doc)" 4 (List.length out);
      check_bool "dict_add applied" true
        (has_match {|"op":"dict_add","outcome":"ok","applied":true|} out);
      check_bool "added entity matches immediately under its fresh id" true
        (has_match {|"outcome":"ok".*"matches":\[{"e":5|} out);
      check_bool "dict_remove applied" true
        (has_match {|"op":"dict_remove","outcome":"ok","applied":true|} out);
      check_bool "health reports the 2-deep overlay" true
        (has_match {|"op":"health".*"delta":2|} out);
      check_bool "health reports the compaction age" true
        (has_match {|"compact_age_s"|} out);
      (* Fresh process, same WAL: both mutations replay at startup. *)
      let input2 = Filename.concat dir "input2.ndjson" in
      write_file input2
        ("{\"text\":\"talk by dong xin today\"}\n" ^ "{\"op\":\"health\"}\n");
      let status, out, _ =
        run_cli_io ~dir ~stdin_file:input2
          [
            "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "1";
            "--wal"; wal;
          ]
      in
      check_int "restart exit 0" 0 (exit_code status);
      check_bool "replayed add still matches under the same id" true
        (has_match {|"outcome":"ok".*"matches":\[{"e":5|} out);
      check_bool "replayed overlay is still 2 deep" true
        (has_match {|"op":"health".*"delta":2|} out))

(* Offline tooling: `dict add`/`dict remove` append to the WAL without a
   server, and `dict compact` folds the log into the index snapshot and
   truncates it. *)
let test_dict_cli_offline_compact () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let idx = Filename.concat dir "dict.fidx" in
      let wal = Filename.concat dir "dict.wal" in
      let status, _ =
        run_cli [ "index"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "-o"; idx ]
      in
      check_int "index build exit 0" 0 (exit_code status);
      let status, lines =
        run_cli [ "dict"; "add"; "--wal"; wal; "dong xin"; "data mining" ]
      in
      check_int "dict add exit 0" 0 (exit_code status);
      check_bool "add reports both appends" true
        (has_match "appended 2 add" lines);
      let status, _ = run_cli [ "dict"; "remove"; "--wal"; wal; "venkatesh" ] in
      check_int "dict remove exit 0" 0 (exit_code status);
      let status, lines =
        run_cli [ "dict"; "compact"; "-s"; "ed=2"; "--wal"; wal; "--index"; idx ]
      in
      check_int "dict compact exit 0" 0 (exit_code status);
      check_bool "compact folds all three mutations" true
        (has_match "folded 3 mutation" lines);
      check_bool "live count after the fold" true (has_match "6 entities" lines);
      (* The WAL was truncated: a second compact has nothing to fold. *)
      let status, lines =
        run_cli [ "dict"; "compact"; "-s"; "ed=2"; "--wal"; wal; "--index"; idx ]
      in
      check_int "second compact exit 0" 0 (exit_code status);
      check_bool "wal empty after the fold" true (has_match "wal empty" lines);
      (* The folded snapshot serves the added entity with no WAL at all. *)
      let input = Filename.concat dir "in.ndjson" in
      write_file input "{\"text\":\"talk by dong xin today\"}\n";
      let status, out, _ =
        run_cli_io ~dir ~stdin_file:input
          [ "serve"; "-x"; idx; "-s"; "ed=2"; "--domains"; "1" ]
      in
      check_int "serve exit 0" 0 (exit_code status);
      check_bool "folded entity matches" true
        (has_match {|"outcome":"ok".*"matches":\[{"e":|} out))

(* Replay refuses a record captured under a different dictionary
   generation: the text would extract against the wrong dictionary and
   prove nothing. --gen declares which generation --dict holds. *)
let test_fuzz_replay_gen_gate () =
  with_temp_dir (fun dir ->
      let dict = paper_dict_file dir in
      let input = Filename.concat dir "input.ndjson" in
      write_file input "{\"text\":\"surauijt chadhuri\",\"id\":\"poison-a\"}\n";
      let quarantine = Filename.concat dir "quarantine.ndjson" in
      let status, _, _ =
        run_cli_io ~dir ~stdin_file:input
          [
            "serve"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "--domains"; "1";
            "--retries"; "1"; "--backoff-ms"; "0";
            "--quarantine"; quarantine;
            "--inject"; "7:supervisor_worker=1.0";
          ]
      in
      check_int "serve exit 0" 0 (exit_code status);
      let records = read_lines quarantine in
      check_int "one quarantine record" 1 (List.length records);
      check_bool "record stamped with generation 0" true
        (has_match {|"gen":0|} records);
      let status, lines =
        run_fuzz [ "--replay=" ^ quarantine; "--dict=" ^ dict ]
      in
      check_int "same-generation replay reproduces" 0 (exit_code status);
      check_bool "reports reproduction" true
        (has_match "all 1 records reproduce" lines);
      (* Forge a generation-3 stamp: replay must refuse it loudly. *)
      let forged = Filename.concat dir "forged.ndjson" in
      write_file forged
        (String.concat "\n"
           (List.map
              (Str.replace_first (Str.regexp_string {|"gen":0|}) {|"gen":3|})
              records)
        ^ "\n");
      let status, lines = run_fuzz [ "--replay=" ^ forged; "--dict=" ^ dict ] in
      check_bool "mismatched generation exits nonzero" true
        (exit_code status <> 0);
      check_bool "clear error names the mismatch" true
        (has_match "GENERATION MISMATCH" lines);
      (* Declaring the matching generation lets the record replay. *)
      let status, lines =
        run_fuzz [ "--replay=" ^ forged; "--dict=" ^ dict; "--gen=3" ]
      in
      check_int "matching --gen replays" 0 (exit_code status);
      check_bool "reproduces under the declared generation" true
        (has_match "all 1 records reproduce" lines);
      (* A compaction moves a single-process server to generation 1; a
         document quarantined after it is stamped with the generation
         that served it, as its response is. *)
      let idx = Filename.concat dir "paper.fidx" in
      let status, _ =
        run_cli [ "index"; "-d"; dict; "-s"; "ed=2"; "-q"; "2"; "-o"; idx ]
      in
      check_int "index exit 0" 0 (exit_code status);
      let input = Filename.concat dir "input-gen1.ndjson" in
      write_file input
        ("{\"op\":\"dict_add\",\"entity\":\"dong xin\"}\n"
       ^ "{\"op\":\"compact\"}\n"
       ^ "{\"text\":\"surauijt chadhuri\",\"id\":\"poison-b\"}\n");
      let quarantine = Filename.concat dir "quarantine-gen1.ndjson" in
      let status, out, _ =
        run_cli_io ~dir ~stdin_file:input
          [
            "serve"; "-x"; idx; "-s"; "ed=2"; "-q"; "2"; "--domains"; "1";
            "--wal"; Filename.concat dir "gen1.wal";
            "--retries"; "1"; "--backoff-ms"; "0";
            "--quarantine"; quarantine;
            "--inject"; "7:supervisor_worker=1.0";
          ]
      in
      check_int "serve exit 0" 0 (exit_code status);
      check_bool "compaction reached generation 1" true
        (has_match {|"op":"compact","outcome":"ok","gen":1|} out);
      check_bool "the poison document was served at generation 1" true
        (has_match {|"id":"poison-b","gen":1,"outcome":"quarantined"|} out);
      let records = read_lines quarantine in
      check_int "one quarantine record" 1 (List.length records);
      check_bool "record stamped with the serving generation" true
        (has_match {|"gen":1|} records);
      let dict1 = Filename.concat dir "dict-gen1.txt" in
      write_file dict1 (String.concat "\n" (read_lines dict @ [ "dong xin" ]) ^ "\n");
      let status, lines =
        run_fuzz [ "--replay=" ^ quarantine; "--dict=" ^ dict1; "--gen=1" ]
      in
      check_int "generation-1 record replays" 0 (exit_code status);
      check_bool "reproduces at generation 1" true
        (has_match "all 1 records reproduce" lines))

let () =
  Alcotest.run "faerie_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "extract paper matches" `Quick test_extract_finds_paper_matches;
          Alcotest.test_case "extract --top" `Quick test_extract_top_k;
          Alcotest.test_case "extract --select" `Quick test_extract_select_non_overlapping;
          Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip_cli;
          Alcotest.test_case "stats" `Quick test_stats_reports_counts;
          Alcotest.test_case "gen" `Quick test_gen_writes_corpus;
          Alcotest.test_case "missing source" `Quick test_missing_source_fails;
          Alcotest.test_case "bad sim spec" `Quick test_bad_sim_spec_fails;
          Alcotest.test_case "extract --metrics/--trace" `Quick
            test_extract_metrics_file;
          Alcotest.test_case "explain waterfall" `Quick test_explain_waterfall;
          Alcotest.test_case "explain --jsonl event schema" `Quick
            test_explain_jsonl;
          Alcotest.test_case "extract --explain=FILE" `Quick
            test_extract_explain_file;
          Alcotest.test_case "extract --verifier" `Quick
            test_extract_verifier_flag;
          Alcotest.test_case "extract --metrics-format=prom" `Quick
            test_extract_metrics_prom;
          Alcotest.test_case "regress exit codes" `Quick
            test_regress_exit_codes;
          Alcotest.test_case "regress --max-alloc-ratio" `Quick
            test_regress_alloc_gate;
          Alcotest.test_case "flame profile" `Quick test_flame_profile;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ndjson roundtrip" `Quick
            test_serve_ndjson_roundtrip;
          Alcotest.test_case "quarantine + replay" `Quick
            test_serve_quarantine_and_replay;
          Alcotest.test_case "hot reload" `Quick test_serve_hot_reload;
          Alcotest.test_case "admin stats/health ops" `Quick
            test_serve_admin_ops;
          Alcotest.test_case "periodic stats interval" `Quick
            test_serve_stats_interval;
          Alcotest.test_case "single-process == sharded stdout" `Quick
            test_serve_single_equals_sharded;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "dict_add/dict_remove over a WAL" `Quick
            test_serve_dict_mutation_wal;
          Alcotest.test_case "dict add/remove/compact CLI" `Quick
            test_dict_cli_offline_compact;
          Alcotest.test_case "replay generation gate" `Quick
            test_fuzz_replay_gen_gate;
        ] );
    ]
