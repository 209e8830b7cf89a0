(* Cluster tests: shard-plan partitioning algebra, the serve-protocol
   wire codecs (lossless outcome transport, versioned frames), the
   length-prefixed frame transport itself (whole-or-nothing delivery
   across pipe scheduling), the multi-process dead-letter sink, and the
   cluster end-to-end properties — shard-count-independent merges under
   fault injection, two-phase generation-consistent reload, and clean
   shutdown semantics.

   The end-to-end tests fork shard processes. Unix.fork refuses in any
   process that has ever created a domain, so nothing in this binary may
   spawn a domain in the parent — the worker pools live inside the forked
   shard children only. *)

module Sim = Faerie_sim.Sim
module Core = Faerie_core
module Types = Core.Types
module Outcome = Core.Outcome
module Supervisor = Core.Supervisor
module Serve_proto = Core.Serve_proto
module Shard_plan = Core.Shard_plan
module Cluster = Core.Cluster
module Extractor = Core.Extractor
module Parallel = Core.Parallel
module Fault = Faerie_util.Fault
module Budget = Faerie_util.Budget
module Xorshift = Faerie_util.Xorshift
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let paper_dict =
  [ "kaushik ch"; "chakrabarti"; "chaudhuri"; "venkatesh"; "surajit ch" ]

let paper_doc =
  "an efficient filter for approximate membership checking. venkaee shga \
   kamunshik kabarati, dong xin, surauijt chadhurisigmod."

(* ------------------------------------------------------------------ *)
(* Shard_plan                                                          *)
(* ------------------------------------------------------------------ *)

(* Cover [0, n) with disjoint contiguous ranges whose sizes differ by at
   most one, for every (n, shards) shape — the coordinator and offline
   tooling must always agree on ownership. *)
let test_partition_properties () =
  for n = 0 to 23 do
    for shards = 1 to 7 do
      let ranges = Shard_plan.partition ~n_entities:n ~shards in
      check_int "one range per shard" shards (Array.length ranges);
      let total =
        Array.fold_left (fun a r -> a + Shard_plan.width r) 0 ranges
      in
      check_int "ranges cover all entities" n total;
      Array.iteri
        (fun i r ->
          check_bool "non-negative width" true (Shard_plan.width r >= 0);
          if i > 0 then
            check_int "contiguous" ranges.(i - 1).Shard_plan.hi r.Shard_plan.lo)
        ranges;
      let widths = Array.map Shard_plan.width ranges in
      let mx = Array.fold_left max 0 widths in
      let mn = Array.fold_left min max_int widths in
      check_bool "near-equal sizes" true (mx - mn <= 1);
      for e = 0 to n - 1 do
        match Shard_plan.owner ranges e with
        | None -> Alcotest.failf "entity %d unowned (n=%d shards=%d)" e n shards
        | Some s ->
            check_bool "owner range contains entity" true
              (e >= ranges.(s).Shard_plan.lo && e < ranges.(s).Shard_plan.hi)
      done;
      check_bool "out of range unowned" true
        (Shard_plan.owner ranges n = None)
    done
  done;
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Shard_plan.partition: shards must be positive")
    (fun () -> ignore (Shard_plan.partition ~n_entities:5 ~shards:0))

let test_remap () =
  let range = { Shard_plan.lo = 7; hi = 11 } in
  let m l e =
    {
      Types.c_entity = e;
      c_start = l;
      c_len = 3;
      c_score = Faerie_sim.Verify.Score.Distance 1;
    }
  in
  let remapped = Shard_plan.remap_matches ~range [ m 0 0; m 1 3 ] in
  check_int "first remapped" 7 (List.nth remapped 0).Types.c_entity;
  check_int "second remapped" 10 (List.nth remapped 1).Types.c_entity;
  check_int "span untouched" 1 (List.nth remapped 1).Types.c_start

(* ------------------------------------------------------------------ *)
(* Serve_proto codecs                                                  *)
(* ------------------------------------------------------------------ *)

let sample_matches =
  [
    {
      Types.c_entity = 3;
      c_start = 0;
      c_len = 9;
      c_score = Faerie_sim.Verify.Score.Distance 2;
    };
    {
      Types.c_entity = 0;
      c_start = 12;
      c_len = 4;
      c_score = Faerie_sim.Verify.Score.Similarity 0.875;
    };
  ]

let sample_errors =
  [
    Outcome.Doc_too_large { bytes = 9000; limit = 4096 };
    Outcome.Budget_exhausted Budget.Deadline;
    Outcome.Budget_exhausted Budget.Candidates;
    Outcome.Tokenize_error "bad rune";
    Outcome.Corrupt_index "magic mismatch";
    Outcome.Injected_fault "shard_frame";
    Outcome.Worker_crash
      { Outcome.exn_name = "Not_found"; message = "m"; backtrace = "" };
    Outcome.Shed Outcome.Queue_full;
    Outcome.Shed Outcome.Deadline_expired;
    Outcome.Shed Outcome.Shutdown;
    Outcome.Quarantined
      { attempts = 3; last = Outcome.Injected_fault "supervisor_worker" };
  ]

let sample_degradations =
  [
    Outcome.Oversize_chunked { bytes = 10; limit = 5 };
    Outcome.Partial Budget.Bytes;
    Outcome.Shard_partial { n_shards = 4; missing = [ 1; 3 ] };
  ]

(* The coordinator reconstructs outcomes from shard Result frames; every
   constructor in the outcome tree must survive the wire byte-for-byte
   (scores included — a Distance must not come back as a Similarity). *)
let test_outcome_codec_roundtrip () =
  let outcomes =
    [ Outcome.Ok sample_matches; Outcome.Ok [] ]
    @ List.map (fun d -> Outcome.Degraded (sample_matches, d)) sample_degradations
    @ List.map (fun e -> Outcome.Failed e) sample_errors
  in
  List.iter
    (fun out ->
      match Serve_proto.outcome_of_json (Serve_proto.outcome_to_json out) with
      | None -> Alcotest.fail "outcome did not decode"
      | Some back -> check_bool "outcome round-trips" true (back = out))
    outcomes;
  List.iter
    (fun e ->
      match Serve_proto.error_of_json (Serve_proto.error_to_json e) with
      | None -> Alcotest.fail "error did not decode"
      | Some back -> check_bool "error round-trips" true (back = e))
    sample_errors

let test_shard_message_roundtrip () =
  let msgs =
    [
      Serve_proto.Shard.Doc
        {
          doc = 7;
          attempt = 2;
          timeout_ms = Some 250;
          text = "a b c";
          trace = None;
        };
      Serve_proto.Shard.Doc
        { doc = 0; attempt = 0; timeout_ms = None; text = ""; trace = None };
      Serve_proto.Shard.Doc
        {
          doc = 3;
          attempt = 0;
          timeout_ms = None;
          text = "traced";
          trace = Some (4, 2);
        };
      Serve_proto.Shard.Prepare { gen = 3; path = "/tmp/x.faerie" };
      Serve_proto.Shard.Commit { gen = 3 };
      Serve_proto.Shard.Abort { gen = 3 };
      Serve_proto.Shard.Stats_req;
      Serve_proto.Shard.Shutdown;
    ]
  in
  List.iter
    (fun m ->
      match Serve_proto.Shard.(msg_of_string (msg_to_string m)) with
      | Ok back -> check_bool "msg round-trips" true (back = m)
      | Error e -> Alcotest.fail (Serve_proto.parse_error_to_string e))
    msgs;
  let sample_spans =
    [
      {
        Trace.name = "extract";
        start_ns = 9_223_372_036_854_775_000L;
        dur_ns = 12345L;
        depth = 2;
        domain = 1;
        trace = 10;
        ok = true;
        attrs = [ ("doc", "9") ];
      };
      {
        Trace.name = "verify";
        start_ns = 0L;
        dur_ns = 0L;
        depth = 0;
        domain = 0;
        trace = 0;
        ok = false;
        attrs = [];
      };
    ]
  in
  let sample_snapshot =
    {
      Metrics.counters = [ ("docs", 4); ("errors", 0) ];
      gauges =
        [
          ("queue", { Metrics.value = 2.5; agg = `Sum; label = None });
          ( "shard_up_1",
            {
              Metrics.value = 1.;
              agg = `Max;
              label = Some ("shard_up", "shard", "1");
            } );
        ];
      histograms =
        [
          ( "lat",
            {
              Metrics.upper = [| 1.; 10. |];
              counts = [| 3; 0; 1 |];
              sum = 14.5;
              count = 4;
              exemplars = [| (0, 0.); (7, 8.5); (12, 14.5) |];
            } );
          ( "lat_plain",
            {
              Metrics.upper = [| 1. |];
              counts = [| 1; 0 |];
              sum = 0.5;
              count = 1;
              exemplars = [||];
            } );
        ];
    }
  in
  let replies =
    [
      Serve_proto.Shard.Ready { shard = 2; gen = 0; now_ns = 123456789L };
      Serve_proto.Shard.Result
        {
          doc = 9;
          gen = 1;
          outcome = Outcome.Ok sample_matches;
          spans = [];
          stages = [];
        };
      Serve_proto.Shard.Result
        {
          doc = 10;
          gen = 1;
          outcome = Outcome.Ok [];
          spans = sample_spans;
          stages = [ ("tokenize", 1200.); ("verify", 4.5e6) ];
        };
      Serve_proto.Shard.Stats_reply { shard = 2; snapshot = sample_snapshot };
      Serve_proto.Shard.Prepared { gen = 4 };
      Serve_proto.Shard.Prepare_failed { gen = 4; error = "corrupt index: x" };
      Serve_proto.Shard.Committed { gen = 4 };
      Serve_proto.Shard.Aborted { gen = 4 };
      Serve_proto.Shard.Refused { error = "nope" };
      Serve_proto.Shard.Bye { restarts = 5; quarantined = 2 };
    ]
  in
  List.iter
    (fun r ->
      match Serve_proto.Shard.(reply_of_string (reply_to_string r)) with
      | Ok back -> check_bool "reply round-trips" true (back = r)
      | Error e -> Alcotest.fail (Serve_proto.parse_error_to_string e))
    replies

(* Protocol version skew across the coordinator/shard boundary must be a
   structured refusal, not a parse failure or a silent misread. *)
let test_version_mismatch () =
  let good = Serve_proto.Shard.(msg_to_string Shutdown) in
  (match Serve_proto.Shard.msg_of_string good with
  | Ok Serve_proto.Shard.Shutdown -> ()
  | _ -> Alcotest.fail "well-versed frame rejected");
  let skewed =
    Str.replace_first
      (Str.regexp_string (Printf.sprintf "\"v\":%d" Serve_proto.version))
      (Printf.sprintf "\"v\":%d" (Serve_proto.version + 1))
      good
  in
  (match Serve_proto.Shard.msg_of_string skewed with
  | Error (Serve_proto.Version_mismatch { got }) ->
      check_int "mismatch reports peer version" (Serve_proto.version + 1) got
  | _ -> Alcotest.fail "version skew not rejected");
  (match Serve_proto.Shard.msg_of_string {|{"op":"shutdown"}|} with
  | Error (Serve_proto.Malformed _) -> ()
  | _ -> Alcotest.fail "missing version not rejected");
  (* Client-facing responses advertise the version, and a skewed request
     is refused with the structured error body. *)
  let resp =
    Serve_proto.response_json ~ord:0 ~id:None ~gen:0 (Outcome.Ok [])
  in
  check_bool "response carries v" true
    (try
       ignore (Str.search_forward (Str.regexp_string "\"v\":1") resp 0);
       true
     with Not_found -> false);
  match
    Serve_proto.parse_request ~ord:0
      (Printf.sprintf {|{"text":"x","v":%d}|} (Serve_proto.version + 1))
  with
  | Error (Serve_proto.Version_mismatch _) -> ()
  | _ -> Alcotest.fail "request version skew not rejected"

(* ------------------------------------------------------------------ *)
(* Frame transport                                                     *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* A frame must arrive whole even when the pipe delivers it a byte at a
   time, and a stream cut mid-frame must read as a clean EOF at the torn
   boundary — the coordinator treats that as a shard death, never as a
   corrupted or truncated payload. *)
let test_frame_split_delivery () =
  let r, w = Unix.pipe ~cloexec:false () in
  let payload = String.concat "," (List.init 64 string_of_int) in
  (* Encode via Frame.write into a scratch pipe to learn the exact bytes. *)
  let sr, sw = Unix.pipe ~cloexec:false () in
  Serve_proto.Frame.write sw payload;
  let encoded = Bytes.create (4 + String.length payload) in
  let n = Unix.read sr encoded 0 (Bytes.length encoded) in
  check_int "scratch read got whole frame" (Bytes.length encoded) n;
  Unix.close sr;
  Unix.close sw;
  let reader = Serve_proto.Frame.reader r in
  (* Dribble the bytes one at a time from a feeder process so the reader
     observes genuinely partial arrivals. *)
  let feeder = Unix.fork () in
  if feeder = 0 then begin
    Unix.close r;
    Bytes.iter
      (fun c ->
        write_all w (String.make 1 c);
        ignore (Unix.select [] [] [] 0.001))
      encoded;
    (* Second frame, then cut the stream mid-header of a third. *)
    Serve_proto.Frame.write w "second";
    write_all w "\x00\x00";
    Unix._exit 0
  end;
  Unix.close w;
  (match Serve_proto.Frame.read reader with
  | `Frame p -> check_string "split frame reassembled" payload p
  | _ -> Alcotest.fail "expected first frame");
  (match Serve_proto.Frame.read reader with
  | `Frame p -> check_string "second frame" "second" p
  | _ -> Alcotest.fail "expected second frame");
  (match Serve_proto.Frame.read reader with
  | `Eof -> ()
  | _ -> Alcotest.fail "torn tail must read as EOF");
  Unix.close r;
  ignore (Unix.waitpid [] feeder)

let test_frame_deadline_and_corrupt () =
  let r, w = Unix.pipe ~cloexec:false () in
  let reader = Serve_proto.Frame.reader r in
  let deadline =
    Int64.add (Faerie_obs.Trace.now_ns ()) (Int64.of_int 20_000_000)
  in
  (match Serve_proto.Frame.read ~deadline_ns:deadline reader with
  | `Timeout -> ()
  | _ -> Alcotest.fail "empty pipe must time out");
  (* An implausible length header is a desynchronized stream, not an
     allocation request. *)
  write_all w "\x7f\xff\xff\xff";
  (match Serve_proto.Frame.read reader with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized header must be Corrupt");
  Unix.close r;
  Unix.close w;
  Alcotest.check_raises "oversize write refused"
    (Invalid_argument
       (Printf.sprintf "Serve_proto.Frame.write: %d-byte frame"
          (Serve_proto.Frame.max_len + 1)))
    (fun () ->
      let r2, w2 = Unix.pipe ~cloexec:false () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r2;
          Unix.close w2)
        (fun () ->
          Serve_proto.Frame.write w2
            (String.make (Serve_proto.Frame.max_len + 1) 'x')))

(* ------------------------------------------------------------------ *)
(* Quarantine sink                                                     *)
(* ------------------------------------------------------------------ *)

let sample_record ~shard ~doc_id =
  {
    Supervisor.Quarantine.doc_id;
    id = Some "req-1";
    shard;
    attempts = 2;
    error = "worker crashed: Shard_exit";
    sim = Sim.Edit_distance 2;
    q = 2;
    pruning = Types.Binary_window;
    budget = Budget.spec_unlimited;
    fault = Some { Fault.seed = 7; rates = [ ("shard_frame", 0.25) ] };
    gen = 0;
    text = "poison";
  }

(* The shard field must survive the record codec (replay needs to know
   which slice owned the failure), and records written through sinks in
   separate processes appending to one file must come out as whole,
   parseable, never-interleaved lines — that is the Append_log contract,
   also for records longer than one 64 KiB Unix.write buffer. *)
let test_sink_multiprocess_append () =
  let r = sample_record ~shard:(Some 3) ~doc_id:42 in
  (match Supervisor.Quarantine.(of_json (to_json r)) with
  | Ok back ->
      check_bool "shard field round-trips" true
        (back.Supervisor.Quarantine.shard = Some 3)
  | Error e -> Alcotest.fail e);
  (* No shard -> the pre-cluster record shape, byte-for-byte. *)
  let legacy = Supervisor.Quarantine.to_json (sample_record ~shard:None ~doc_id:1) in
  check_bool "legacy shape has no shard key" true
    (not
       (try
          ignore (Str.search_forward (Str.regexp_string "\"shard\"") legacy 0);
          true
        with Not_found -> false));
  (* Short records, and records longer than Unix.write's 64 KiB buffer. *)
  let writers text =
    let path = Filename.temp_file "faerie-test-sink-" ".ndjson" in
    let children =
      List.init 4 (fun child ->
          let pid = Unix.fork () in
          if pid = 0 then begin
            let sink = Supervisor.Quarantine.open_sink path in
            for i = 0 to 24 do
              Supervisor.Quarantine.append sink
                {
                  (sample_record ~shard:(Some child) ~doc_id:((child * 1000) + i))
                  with
                  text;
                }
            done;
            Supervisor.Quarantine.close_sink sink;
            Unix._exit 0
          end
          else pid)
    in
    List.iter (fun pid -> ignore (Unix.waitpid [] pid)) children;
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    check_int "every append is one whole line" 100 (List.length !lines);
    let seen = Hashtbl.create 128 in
    List.iter
      (fun line ->
        match Supervisor.Quarantine.of_json line with
        | Error e ->
            Alcotest.failf "interleaved/torn record (%s): %s" e
              (String.sub line 0 (min 200 (String.length line)))
        | Ok r -> Hashtbl.replace seen r.Supervisor.Quarantine.doc_id ())
      !lines;
    check_int "all 100 distinct records present" 100 (Hashtbl.length seen);
    Sys.remove path
  in
  List.iter writers [ "poison"; String.make 70_000 'x' ]

let test_indexed_gauge () =
  let reg = Metrics.create () in
  let g2 = Metrics.indexed_gauge ~registry:reg "test_shard_up" 2 in
  Metrics.set g2 1.;
  let snap = Metrics.snapshot ~registry:reg () in
  check_bool "indexed gauge readable under suffixed name" true
    (Metrics.gauge_value snap "test_shard_up_2" = 1.)

(* ------------------------------------------------------------------ *)
(* Cluster end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let quiet_stderr f =
  (* Shard restarts log to stderr by design; keep test output readable. *)
  let saved = Unix.dup Unix.stderr in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stderr;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f

let cluster_config ?(pool_retries = 1) ~shards ~retries () =
  {
    Cluster.default_config with
    Cluster.shards;
    pool =
      {
        Supervisor.domains = 1;
        retry =
          { Supervisor.default_retry with retries = pool_retries; backoff_ms = 0 };
        queue_capacity = 8;
        quarantine = None;
        shed = false;
        shard = None;
      };
    retry = { Supervisor.default_retry with retries; backoff_ms = 0 };
  }

let docs = [| paper_doc; "chaudhuri venkatesh"; ""; "zzz qqq"; paper_doc |]

let clean_baseline () =
  let problem = Core.Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let ex = Extractor.of_problem problem in
  Array.map (fun d -> Parallel.outcome_of_report (Extractor.run ex (`Text d))) docs

(* The tentpole determinism property: the merged match sets must be
   byte-identical whether the dictionary lives in 1 shard or 4 — and
   identical to a single-process run, match order included. *)
let test_merge_determinism_clean () =
  let baseline = clean_baseline () in
  let run shards =
    let outcomes, summary, _ =
      Cluster.run_batch
        ~config:(cluster_config ~shards ~retries:1 ())
        ~sim:(Sim.Edit_distance 2) ~q:2 ~entities:paper_dict docs
    in
    check_int "all docs answered" (Array.length docs) summary.Outcome.n_docs;
    check_int "all ok" (Array.length docs) summary.Outcome.n_ok;
    outcomes
  in
  let one = run 1 and four = run 4 in
  check_bool "1-shard == 4-shard merge" true (one = four);
  Array.iteri
    (fun i out ->
      match (out, baseline.(i)) with
      | Outcome.Ok got, Outcome.Ok want ->
          check_bool "merged == single-process" true (got = want)
      | _ -> Alcotest.fail "expected Ok on both sides")
    one

(* Same property under injected shard kills at the shard_frame site and
   worker kills inside the shard pools: with enough coordinator retries
   every document must still converge to the exact Ok answer, and the
   kills must actually have happened (restarts observed). *)
let test_merge_determinism_under_faults () =
  quiet_stderr (fun () ->
      let baseline = clean_baseline () in
      Fault.configure
        {
          Fault.seed = 20260809;
          rates = [ ("shard_frame", 0.3); ("supervisor_worker", 0.2) ];
        };
      Fun.protect ~finally:Fault.disarm (fun () ->
          let outcomes, summary, totals =
            Cluster.run_batch
              ~config:(cluster_config ~pool_retries:6 ~shards:4 ~retries:8 ())
              ~sim:(Sim.Edit_distance 2) ~q:2 ~entities:paper_dict docs
          in
          check_int "zero lost documents" (Array.length docs)
            summary.Outcome.n_docs;
          check_int "all converge to ok" (Array.length docs)
            summary.Outcome.n_ok;
          check_bool "shard kills actually happened" true
            (totals.Cluster.shard_restarts > 0);
          Array.iteri
            (fun i out ->
              match (out, baseline.(i)) with
              | Outcome.Ok got, Outcome.Ok want ->
                  check_bool "faulted merge == clean single-process" true
                    (got = want)
              | _ -> Alcotest.fail "expected Ok on both sides")
            outcomes))

(* Two-phase reload: the generation only advances when every shard has
   prepared and committed, and answers are unchanged across the swap. *)
let test_reload_generation () =
  let cluster =
    Cluster.create
      ~config:(cluster_config ~shards:2 ~retries:1 ())
      ~sim:(Sim.Edit_distance 2) ~q:2
      (fun () -> paper_dict)
  in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      check_int "starts at generation 0" 0 (Cluster.generation cluster);
      let before = Cluster.submit cluster ~doc:0 paper_doc in
      (match Cluster.reload cluster with
      | Ok g -> check_int "reload commits generation 1" 1 g
      | Error e -> Alcotest.fail e);
      check_int "generation visible" 1 (Cluster.generation cluster);
      let after = Cluster.submit cluster ~doc:1 paper_doc in
      check_bool "same answers across generations" true (before = after);
      match Cluster.reload cluster with
      | Ok g -> check_int "reload commits generation 2" 2 g
      | Error e -> Alcotest.fail e)

let test_submit_after_shutdown () =
  let cluster =
    Cluster.create
      ~config:(cluster_config ~shards:2 ~retries:1 ())
      ~sim:(Sim.Edit_distance 2) ~q:2
      (fun () -> paper_dict)
  in
  let out = Cluster.submit cluster ~doc:0 "chaudhuri" in
  check_bool "live cluster answers" true
    (match out with Outcome.Ok _ -> true | _ -> false);
  Cluster.shutdown cluster;
  Cluster.shutdown cluster;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Cluster.submit: cluster is shut down") (fun () ->
      ignore (Cluster.submit cluster ~doc:1 "chaudhuri"))

(* ------------------------------------------------------------------ *)
(* Cluster-wide stats aggregation                                      *)
(* ------------------------------------------------------------------ *)

(* The merged snapshot's extraction counters must equal the sum of the
   per-shard pulls: every document fans out to every shard, so each of
   the [shards] processes counts each document once. The coordinator
   contributes registry-only series (shard_up members) to the merge. *)
let test_cluster_stats_merge () =
  Metrics.reset ();
  let shards = 4 in
  let cluster =
    Cluster.create
      ~config:(cluster_config ~shards ~retries:1 ())
      ~sim:(Sim.Edit_distance 2) ~q:2
      (fun () -> paper_dict)
  in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      Array.iteri (fun i d -> ignore (Cluster.submit cluster ~doc:i d)) docs;
      let merged, per_shard = Cluster.stats cluster in
      check_int "one pull per shard" shards (List.length per_shard);
      List.iter
        (fun (sid, snap) ->
          check_bool
            (Printf.sprintf "shard %d snapshot present" sid)
            true (snap <> None))
        per_shard;
      let shard_sum name =
        List.fold_left
          (fun acc (_, snap) ->
            match snap with
            | Some s -> acc + Metrics.counter_value s name
            | None -> acc)
          0 per_shard
      in
      List.iter
        (fun name ->
          check_int
            ("merged counter is the shard sum: " ^ name)
            (shard_sum name)
            (Metrics.counter_value merged name))
        [
          "docs_processed"; "docs_ok"; "tokenize_calls"; "verify_calls";
          "matches_verified";
        ];
      check_int "each shard processed every document"
        (shards * Array.length docs)
        (shard_sum "docs_processed");
      for sid = 0 to shards - 1 do
        check_bool
          (Printf.sprintf "merged snapshot reports shard %d up" sid)
          true
          (Metrics.gauge_value merged (Printf.sprintf "shard_up_%d" sid) = 1.)
      done;
      (* The queue-depth gauge is sampled by the shard stats handler, so
         the member exists in each pull (idle pools report 0). *)
      List.iter
        (fun (sid, snap) ->
          match snap with
          | Some s ->
              check_bool
                (Printf.sprintf "shard %d sampled its queue depth" sid)
                true
                (List.mem_assoc "pool_queue_depth" s.Metrics.gauges)
          | None -> ())
        per_shard)

(* A shard killed by the injected "shard_stats" fault while answering a
   stats pull must surface as a per-shard [None] — partial merge, no
   hang, no exception — and be restarted like any mid-request death.
   Children inherit the armed campaign at fork time (fault state is
   process-local), so replacements spawned while the parent is armed die
   on the next pull too; one flush pull after disarming leaves a fully
   healthy cluster. *)
let test_cluster_stats_partial_on_kill () =
  quiet_stderr (fun () ->
      Fault.configure
        { Fault.seed = 11; rates = [ ("shard_stats", 1.0) ] };
      let cluster =
        Cluster.create
          ~config:
            {
              (cluster_config ~shards:4 ~retries:1 ()) with
              Cluster.shard_timeout_ms = Some 5000;
            }
          ~sim:(Sim.Edit_distance 2) ~q:2
          (fun () -> paper_dict)
      in
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm ();
          Cluster.shutdown cluster)
        (fun () ->
          let merged, per_shard = Cluster.stats cluster in
          List.iter
            (fun (sid, snap) ->
              check_bool
                (Printf.sprintf "killed shard %d flagged as missing" sid)
                true (snap = None))
            per_shard;
          (* The coordinator's own registry still merges. *)
          check_bool "partial merge keeps coordinator series" true
            (Metrics.gauge_value merged "shard_up_0" = 1.);
          let _, healths = Cluster.health cluster in
          List.iter
            (fun h ->
              check_bool "killed shard restarted" true
                (h.Serve_proto.h_up && h.Serve_proto.h_restarts >= 1))
            healths;
          Fault.disarm ();
          (* Replacements forked under the armed campaign die on this
             pull; their successors fork from the now-disarmed parent. *)
          ignore (Cluster.stats cluster);
          let _, per_shard = Cluster.stats cluster in
          List.iter
            (fun (sid, snap) ->
              check_bool
                (Printf.sprintf "shard %d healthy after flush" sid)
                true (snap <> None))
            per_shard;
          match Cluster.submit cluster ~doc:0 paper_doc with
          | Outcome.Ok _ -> ()
          | _ -> Alcotest.fail "cluster must keep serving after stats kills"))

(* ------------------------------------------------------------------ *)
(* Cross-process trace propagation                                     *)
(* ------------------------------------------------------------------ *)

(* A traced document must come back as ONE properly nested span tree:
   the coordinator's cluster_doc root, with each shard's doc_attempt /
   extract_doc subtree grafted inside it (re-based onto the
   coordinator's clock) and tagged with the request's trace id. The
   flame reconstruction is the end-to-end check: every frame's stack
   must bottom out at cluster_doc — shard frames never float as
   separate roots. *)
let test_cluster_trace_propagation () =
  let shards = 2 in
  let cluster =
    Cluster.create
      ~config:(cluster_config ~shards ~retries:1 ())
      ~sim:(Sim.Edit_distance 2) ~q:2
      (fun () -> paper_dict)
  in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      Trace.enable ();
      let out = Cluster.submit cluster ~doc:0 paper_doc in
      Trace.disable ();
      let spans = Trace.drain () in
      (match out with
      | Outcome.Ok _ -> ()
      | _ -> Alcotest.fail "traced document must still extract");
      let root =
        match List.filter (fun s -> s.Trace.name = "cluster_doc") spans with
        | [ r ] -> r
        | l -> Alcotest.failf "expected 1 cluster_doc root, got %d"
                 (List.length l)
      in
      check_int "root at depth 0" 0 root.Trace.depth;
      let attempts =
        List.filter (fun s -> s.Trace.name = "doc_attempt") spans
      in
      check_int "one shard subtree per shard" shards (List.length attempts);
      let tid = 1 (* doc 0 traces as id doc+1 *) in
      List.iter
        (fun s ->
          check_int "shard span tagged with the request trace" tid
            s.Trace.trace;
          check_int "shard subtree nests under the root" 1 s.Trace.depth;
          check_bool "grafted span re-domained to the coordinator" true
            (s.Trace.domain = root.Trace.domain);
          check_bool "grafted span starts inside the root" true
            (s.Trace.start_ns >= root.Trace.start_ns
            && Int64.add s.Trace.start_ns s.Trace.dur_ns
               <= Int64.add root.Trace.start_ns root.Trace.dur_ns))
        attempts;
      check_bool "shard-side extract spans came across" true
        (List.exists
           (fun s -> s.Trace.name = "extract_doc" && s.Trace.trace = tid)
           spans);
      let frames = Faerie_obs.Prof.flame_of_spans spans in
      check_bool "flame built" true (frames <> []);
      List.iter
        (fun f ->
          match f.Faerie_obs.Prof.stack with
          | "cluster_doc" :: _ -> ()
          | stack ->
              Alcotest.failf
                "frame not rooted at cluster_doc: %s"
                (String.concat ";" stack))
        frames)

(* set_clock is process-local state: a shard forked from a coordinator
   running under an injected test clock resets to the real clock
   (shard_main hygiene), and the child's reset must not leak back into
   the parent. This is the raw mechanism the cluster relies on so that
   deterministic-clock tests never contaminate shard timings. *)
let test_clock_isolation_across_fork () =
  let t = ref 0L in
  Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 10L;
         !t));
  Fun.protect
    ~finally:(fun () -> Trace.set_clock None)
    (fun () ->
      let r, w = Unix.pipe ~cloexec:false () in
      let pid = Unix.fork () in
      if pid = 0 then begin
        Unix.close r;
        (* The shard_main hygiene step. *)
        Trace.set_clock None;
        let now = Trace.now_ns () in
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 now;
        write_all w (Bytes.to_string b);
        Unix._exit 0
      end;
      Unix.close w;
      let b = Bytes.create 8 in
      let rec read_all off =
        if off < 8 then read_all (off + Unix.read r b off (8 - off))
      in
      read_all 0;
      Unix.close r;
      ignore (Unix.waitpid [] pid);
      let child_now = Bytes.get_int64_le b 0 in
      check_bool "child reads the real monotonic clock" true
        (Int64.compare child_now 1_000_000L > 0);
      check_bool "parent keeps its injected clock" true
        (Int64.compare (Trace.now_ns ()) 1_000L < 0))

let () =
  Alcotest.run "faerie_cluster"
    [
      ( "shard_plan",
        [
          Alcotest.test_case "partition properties" `Quick
            test_partition_properties;
          Alcotest.test_case "match remapping" `Quick test_remap;
        ] );
      ( "proto",
        [
          Alcotest.test_case "outcome codec roundtrip" `Quick
            test_outcome_codec_roundtrip;
          Alcotest.test_case "shard message roundtrip" `Quick
            test_shard_message_roundtrip;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
        ] );
      ( "frame",
        [
          Alcotest.test_case "split delivery + torn EOF" `Quick
            test_frame_split_delivery;
          Alcotest.test_case "deadline + corrupt header" `Quick
            test_frame_deadline_and_corrupt;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "multi-process sink append" `Quick
            test_sink_multiprocess_append;
          Alcotest.test_case "indexed gauge" `Quick test_indexed_gauge;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "merge determinism (clean)" `Quick
            test_merge_determinism_clean;
          Alcotest.test_case "merge determinism (faults)" `Quick
            test_merge_determinism_under_faults;
          Alcotest.test_case "two-phase reload" `Quick test_reload_generation;
          Alcotest.test_case "submit after shutdown" `Quick
            test_submit_after_shutdown;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats merge equals shard sums" `Quick
            test_cluster_stats_merge;
          Alcotest.test_case "stats partial on shard kill" `Quick
            test_cluster_stats_partial_on_kill;
          Alcotest.test_case "cross-process trace propagation" `Quick
            test_cluster_trace_propagation;
          Alcotest.test_case "injected clocks stay process-local" `Quick
            test_clock_isolation_across_fork;
        ] );
    ]
