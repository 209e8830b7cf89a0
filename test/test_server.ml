(* The serve request loop (Server.run) driven through a fake, synchronous
   in-memory backend: no fork, no domain. Each test feeds NDJSON lines from
   a file and reads the responses and the log back, so it checks what the
   loop owns — ordinals, WAL-first mutations, reloads that re-apply the
   WAL, EPIPE shutdown and the summary tally — apart from any real
   extraction. *)

module Core = Faerie_core
module Server = Core.Server
module Backend = Core.Backend
module Outcome = Core.Outcome
module Serve_proto = Core.Serve_proto
module Wal = Faerie_util.Wal
module Fault = Faerie_util.Fault
module Metrics = Faerie_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_lines = Alcotest.(check (list string))

(* The live dictionary is a list of raws, every call is logged, and a
   document's text picks its outcome. The text "sighup" raises the reload
   flag while the document is served, as the signal handler would. *)
module Fake = struct
  type t = {
    mutable live : string list;
    mutable gen : int;
    mutable events : string list;  (* newest first *)
    mutable docs : int list;  (* submitted ordinals, newest first *)
    sighup : bool Atomic.t;
  }

  let local_metrics = true
  let note t fmt = Printf.ksprintf (fun s -> t.events <- s :: t.events) fmt

  let apply t op =
    let add, raw =
      match op with Wal.Add r -> (true, r) | Wal.Remove r -> (false, r)
    in
    note t "%s %s" (if add then "add" else "remove") raw;
    let present = List.mem raw t.live in
    if add && not present then t.live <- t.live @ [ raw ]
    else if (not add) && present then t.live <- List.filter (( <> ) raw) t.live;
    (add <> present, -1)

  let submit t ~doc ~id:_ ~budget:_ ~trace:_ text k =
    t.docs <- doc :: t.docs;
    note t "doc %d at gen %d" doc t.gen;
    if text = "sighup" then Atomic.set t.sighup true;
    let outcome =
      match text with
      | "fail" -> Outcome.Failed (Outcome.Tokenize_error "fake")
      | "degrade" ->
          Outcome.Degraded ([], Outcome.Partial Faerie_util.Budget.Deadline)
      | _ -> Outcome.Ok []
    in
    k { Backend.outcome; timing = None }

  (* The reloaded source knows none of the mutations: only the loop's
     re-application can bring them back before the generation serves. *)
  let reload t ~reapply =
    note t "reload";
    t.live <- [];
    reapply (fun op -> ignore (apply t op));
    t.gen <- t.gen + 1;
    note t "serving gen %d" t.gen;
    Ok t.gen

  let compact _ ~index:_ ~wal:_ = Error "not supported"
  let generation t = t.gen
  let live_count t = List.length t.live
  let stats _ = (Metrics.snapshot (), [])

  let health _ = { Backend.status = "ok"; max_rss_bytes = 0.; shards = [] }

  let close _ = Metrics.snapshot ()
  let summary_counts _ = []
end

let config ?wal () =
  {
    Backend.sim = Faerie_sim.Sim.Edit_distance 2;
    q = 2;
    dict = None;
    index = None;
    pruning = Core.Types.Binary_window;
    timeout_ms = None;
    max_doc_bytes = None;
    pool = Core.Supervisor.default_config;
    shards = 0;
    shard_timeout_ms = None;
    metrics_format = `Jsonl;
    stats_interval_s = 0;
    trace_sample_rate = 0.;
    trace_seed = 0;
    slow_ms = None;
    slowlog = None;
    slowlog_k = 8;
    slo = Faerie_obs.Slo.none;
    wal;
    inject = None;
    reload_requested = Atomic.make false;
    tick_requested = Atomic.make false;
  }

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let with_temp_dir f =
  let dir = Filename.temp_file "faerie-server-" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Serve [lines] through a fresh fake; returns it with the response lines
   and the log lines. [output] replaces the response file's channel. *)
let serve ?wal ?output dir lines =
  let input = Filename.concat dir "input.ndjson" in
  Out_channel.with_open_text input (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let c = config ?wal () in
  let fake =
    { Fake.live = []; gen = 0; events = []; docs = []; sighup = c.reload_requested }
  in
  let out_path = Filename.concat dir "out.ndjson" in
  let log_path = Filename.concat dir "log.txt" in
  let out = match output with Some oc -> oc | None -> open_out out_path in
  let log = open_out log_path in
  let fd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      close_out_noerr out;
      close_out log)
    (fun () -> Server.run (module Fake) fake c ~input:fd ~output:out ~log ());
  let responses = if output = None then read_lines out_path else [] in
  (fake, responses, read_lines log_path)

let doc text = Printf.sprintf {|{"text":%S}|} text

let count needle lines =
  List.length
    (List.filter
       (fun l ->
         try
           ignore (Str.search_forward (Str.regexp_string needle) l 0);
           true
         with Not_found -> false)
       lines)

let test_admin_takes_no_ordinal () =
  with_temp_dir (fun dir ->
      let fake, responses, _ =
        serve dir
          [
            doc "a";
            {|{"op":"stats"}|};
            {|{"op":"health"}|};
            {|{"op":"slowlog"}|};
            {|{"op":"no_such_op"}|};
            doc "b";
            {|{"op":"dict_add","entity":"x"}|};
            doc "c";
          ]
      in
      Alcotest.(check (list int))
        "documents numbered 0, 1, 2 around the admin lines" [ 0; 1; 2 ]
        (List.rev fake.Fake.docs);
      check_int "one response per line" 8 (List.length responses);
      List.iteri
        (fun i ord ->
          check_int
            (Printf.sprintf "response for document %d" i)
            1
            (count (Printf.sprintf {|"doc":%d,|} ord) responses))
        [ 0; 1; 2 ])

let test_wal_fault_refuses_mutation () =
  with_temp_dir (fun dir ->
      let wal = Filename.concat dir "serve.wal" in
      Fault.configure { Fault.seed = 1; rates = [ ("wal_append", 1.0) ] };
      let fake, responses, _ =
        Fun.protect ~finally:Fault.disarm (fun () ->
            serve ~wal dir [ {|{"op":"dict_add","entity":"x"}|}; doc "a" ])
      in
      check_lines "refusal answered"
        [
          Serve_proto.admin_error_json ~op:"dict_add"
            "injected fault at wal_append: mutation not applied";
        ]
        [ List.hd responses ];
      check_bool "the backend never saw the mutation" true
        (List.for_all (fun e -> e <> "add x") fake.Fake.events);
      check_lines "nothing in the live dictionary" [] fake.Fake.live;
      check_int "nothing in the wal" 0 (Unix.stat wal).Unix.st_size)

let test_reload_reapplies_wal () =
  with_temp_dir (fun dir ->
      let wal = Filename.concat dir "serve.wal" in
      let fake, responses, log =
        serve ~wal dir
          [
            {|{"op":"dict_add","entity":"x"}|};
            {|{"op":"dict_add","entity":"y"}|};
            {|{"op":"dict_remove","entity":"x"}|};
            doc "sighup";
            doc "after";
          ]
      in
      check_lines "the WAL is re-applied before generation 1 serves"
        [
          "add x"; "add y"; "remove x"; "doc 0 at gen 0"; "reload"; "add x";
          "add y"; "remove x"; "serving gen 1"; "doc 1 at gen 1";
        ]
        (List.rev fake.Fake.events);
      check_lines "live after reload" [ "y" ] fake.Fake.live;
      check_int "the response carries generation 1" 1
        (count {|"doc":1,"v":1,"gen":1,|} responses);
      check_int "re-application logged" 1
        (count "faerie: serve: re-applied 3 wal mutation(s)" log);
      check_int "reload logged" 1
        (count "faerie: serve: reloaded index (generation 1)" log);
      check_int "summary counts the reload" 1 (count {|"reloads":1,|} log))

let test_epipe_ends_loop () =
  with_temp_dir (fun dir ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let r, w = Unix.pipe () in
      Unix.close r;
      let fake, _, log =
        serve ~output:(Unix.out_channel_of_descr w) dir
          (List.init 5 (fun i -> doc (string_of_int i)))
      in
      Alcotest.(check (list int))
        "no document is read after the client left" [ 0 ] fake.Fake.docs;
      check_int "summary still written" 1 (count {|{"docs":1,"ok":1,|} log))

let test_summary_matches_responses () =
  with_temp_dir (fun dir ->
      let _, responses, log =
        serve dir
          [
            doc "a"; doc "degrade"; "not json"; doc "fail"; {|{"op":"stats"}|};
            doc "b"; doc "fail";
          ]
      in
      let ok = count {|"outcome":"ok"|} responses
      and degraded = count {|"outcome":"degraded"|} responses
      and failed = count {|"outcome":"failed"|} responses in
      check_int "responses: ok" 2 ok;
      check_int "responses: degraded" 1 degraded;
      check_int "responses: failed" 2 failed;
      check_int "summary line" 1
        (count
           (Printf.sprintf
              {|{"docs":%d,"ok":%d,"degraded":%d,"failed":%d,"shed":0,"quarantined":0,|}
              (ok + degraded + failed) ok degraded failed)
           log))

let () =
  Alcotest.run "faerie_server"
    [
      ( "loop",
        [
          Alcotest.test_case "admin lines take no ordinal" `Quick
            test_admin_takes_no_ordinal;
          Alcotest.test_case "wal_append fault refuses the mutation" `Quick
            test_wal_fault_refuses_mutation;
          Alcotest.test_case "reload re-applies the wal first" `Quick
            test_reload_reapplies_wal;
          Alcotest.test_case "epipe ends the loop, summary written" `Quick
            test_epipe_ends_loop;
          Alcotest.test_case "summary counts equal the responses" `Quick
            test_summary_matches_responses;
        ] );
    ]
