(* Differential fuzzer: random extraction instances, every algorithm must
   agree with the brute-force oracle. The qcheck suites run bounded counts
   under `dune runtest`; this binary runs open-ended campaigns.

   On any oracle disagreement or crash, a self-contained reproduction
   (seed, sim, q, entities, document) is dumped to stderr and to a file.

   Usage: dune exec bin/fuzz.exe -- [--faults] [iterations] [seed]
          dune exec bin/fuzz.exe -- --replay=FILE --dict=FILE [--gen=N]

   With --faults, the campaign instead runs with deterministic fault
   injection armed (sites: tokenize, heap_merge, verify, codec_io) and
   asserts containment: every injected fault must surface as a structured
   Failed outcome for exactly the affected document — never a process
   crash — and fault-free documents of the same batch must produce results
   identical to a run with injection disabled. Two further phases cover
   the serving layer: a supervised-pool campaign (site supervisor_worker:
   worker deaths mid-batch must lose no documents) and a request-decode
   campaign (site serve_decode: poison request lines must surface as
   parse errors, never crashes).

   With --replay, each NDJSON quarantine record written by the supervisor
   (faerie serve --quarantine) is replayed against the dictionary in
   --dict: the recorded fault campaign is re-armed and the poison document
   re-extracted under its original fault key; exit 0 iff every record
   reproduces a failure. Records are stamped with the dictionary
   generation that was serving when they were written; --gen (default 0)
   declares which generation --dict holds, and a record whose stamp
   differs is refused — its text would extract against the wrong
   dictionary and prove nothing.                                            *)

module Sim = Faerie_sim.Sim
module Core = Faerie_core
module Types = Core.Types
module Problem = Core.Problem
module Tk = Faerie_tokenize
module Naive = Faerie_baselines.Naive
module Ngpp = Faerie_baselines.Ngpp
module Ish = Faerie_baselines.Ish
module Xorshift = Faerie_util.Xorshift
module Fault = Faerie_util.Fault
module Ix = Faerie_index
module Parallel = Core.Parallel
module Outcome = Core.Outcome

let alphabet = [| 'a'; 'b'; 'c' |]

let random_string rng lo hi =
  let n = Xorshift.int_in_range rng ~lo ~hi in
  String.init n (fun _ -> Xorshift.choose rng alphabet)

let random_words rng lo hi =
  let n = Xorshift.int_in_range rng ~lo ~hi in
  List.init n (fun _ -> Xorshift.choose rng [| "aa"; "bb"; "cc"; "dd"; "ee" |])
  |> String.concat " "

type instance = {
  sim : Sim.t;
  q : int;
  entities : string list;
  document : string;
}

let random_instance rng =
  let char_based = Xorshift.bool rng in
  if char_based then begin
    let sim =
      match Xorshift.int rng 7 with
      | 0 -> Sim.Edit_distance 0
      | 1 -> Sim.Edit_distance 1
      | 2 -> Sim.Edit_distance 2
      | 3 -> Sim.Edit_distance 3
      | 4 -> Sim.Edit_similarity 0.5
      | 5 -> Sim.Edit_similarity 0.7
      | _ -> Sim.Edit_similarity 0.9
    in
    {
      sim;
      q = Xorshift.int_in_range rng ~lo:2 ~hi:3;
      entities =
        List.init (Xorshift.int_in_range rng ~lo:1 ~hi:5) (fun _ ->
            random_string rng 1 8);
      document = random_string rng 5 40;
    }
  end
  else begin
    let d = Xorshift.choose rng [| 0.5; 0.7; 0.8; 1.0 |] in
    let sim =
      match Xorshift.int rng 3 with
      | 0 -> Sim.Jaccard d
      | 1 -> Sim.Cosine d
      | _ -> Sim.Dice d
    in
    {
      sim;
      q = 1;
      entities =
        List.init (Xorshift.int_in_range rng ~lo:1 ~hi:5) (fun _ ->
            random_words rng 1 4);
      document = random_words rng 3 20;
    }
  end

let triples ms =
  List.map
    (fun (m : Types.char_match) -> (m.Types.c_entity, m.Types.c_start, m.Types.c_len))
    ms

let faerie_matches ?pruning problem doc =
  let matches, _ = Core.Single_heap.run ?pruning problem doc in
  let main =
    List.map
      (fun (m : Types.token_match) ->
        let c_start, c_len =
          Tk.Document.char_extent doc ~start:m.Types.m_start ~len:m.Types.m_len
        in
        { Types.c_entity = m.Types.m_entity; c_start; c_len; c_score = m.Types.m_score })
      matches
  in
  List.sort_uniq Types.compare_char_match (Core.Fallback.run problem doc @ main)

let check_instance inst =
  let problem = Problem.create ~sim:inst.sim ~q:inst.q inst.entities in
  let doc = Problem.tokenize_document problem inst.document in
  let oracle = triples (Naive.extract problem doc) in
  let failures = ref [] in
  let expect name got =
    if got <> oracle then failures := name :: !failures
  in
  List.iter
    (fun pruning ->
      expect
        ("faerie/" ^ Types.pruning_name pruning)
        (triples (faerie_matches ~pruning problem doc)))
    Types.all_prunings;
  List.iter
    (fun (name, algorithm) ->
      let ms, _ = Core.Multi_heap.run ~algorithm problem doc in
      let as_char =
        List.map
          (fun (m : Types.token_match) ->
            let c_start, c_len =
              Tk.Document.char_extent doc ~start:m.Types.m_start ~len:m.Types.m_len
            in
            { Types.c_entity = m.Types.m_entity; c_start; c_len; c_score = m.Types.m_score })
          ms
      in
      let full =
        List.sort_uniq Types.compare_char_match
          (Core.Fallback.run problem doc @ as_char)
      in
      expect ("multi-heap/" ^ name) (triples full))
    [ ("heap", Core.Multi_heap.Heap_count); ("mergeskip", Core.Multi_heap.Merge_skip);
      ("divideskip", Core.Multi_heap.Divide_skip) ];
  (match inst.sim with
  | Sim.Edit_distance tau ->
      let ngpp = Ngpp.build ~tau inst.entities in
      expect "ngpp" (triples (Ngpp.extract ngpp inst.document))
  | Sim.Jaccard _ | Sim.Edit_similarity _ ->
      let ish = Ish.build problem in
      expect "ish" (triples (Ish.extract ish doc))
  | Sim.Cosine _ | Sim.Dice _ -> ());
  !failures

(* ---- reproduction dumps ---- *)

let repro_text ~seed ~iteration inst ~trouble =
  let b = Buffer.create 512 in
  Printf.bprintf b "==== FAERIE FUZZ REPRO ====\n";
  Printf.bprintf b "trouble:   %s\n" trouble;
  Printf.bprintf b "seed:      %d\n" seed;
  Printf.bprintf b "iteration: %d\n" iteration;
  Printf.bprintf b "sim:       %s\n" (Sim.to_string inst.sim);
  Printf.bprintf b "q:         %d\n" inst.q;
  Printf.bprintf b "entities:\n";
  List.iter (fun e -> Printf.bprintf b "  %S\n" e) inst.entities;
  Printf.bprintf b "document:  %S\n" inst.document;
  Printf.bprintf b "rerun:     dune exec bin/fuzz.exe -- %d %d\n" iteration seed;
  Printf.bprintf b "===========================\n";
  Buffer.contents b

let dump_repro ~seed ~iteration inst ~trouble =
  let text = repro_text ~seed ~iteration inst ~trouble in
  prerr_string text;
  flush stderr;
  try
    let path, oc =
      Filename.open_temp_file
        (Printf.sprintf "faerie-fuzz-repro-%d-%d-" seed iteration)
        ".txt"
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text);
    Printf.eprintf "repro written to %s\n%!" path
  with Sys_error msg -> Printf.eprintf "could not write repro file: %s\n%!" msg

(* ---- differential campaign (default mode) ---- *)

let run_differential iterations seed =
  Printf.printf "fuzzing %d instances (seed %d)\n%!" iterations seed;
  let rng = Xorshift.create seed in
  let failed = ref 0 in
  for i = 1 to iterations do
    let inst = random_instance rng in
    (match check_instance inst with
    | [] -> ()
    | names ->
        incr failed;
        dump_repro ~seed ~iteration:i inst
          ~trouble:("oracle mismatch: " ^ String.concat "," names)
    | exception exn ->
        incr failed;
        dump_repro ~seed ~iteration:i inst
          ~trouble:("crash: " ^ Printexc.to_string exn));
    if i mod 500 = 0 then Printf.printf "  %d/%d ok so far\n%!" (i - !failed) i
  done;
  if !failed = 0 then
    Printf.printf "all %d instances agree with the oracle\n" iterations
  else begin
    Printf.printf "%d failing instances\n" !failed;
    exit 1
  end

(* ---- fault-injection campaign (--faults) ---- *)

let fault_rates =
  [ ("tokenize", 0.2); ("heap_merge", 0.2); ("verify", 0.03); ("codec_io", 0.3) ]

let mix_seed seed i = (seed * 0x9e3779b1) lxor (i * 0x85ebca77) land 0x3FFFFFFF

let run_fault_campaign iterations seed =
  Printf.printf "fault campaign: %d instances (seed %d), sites %s\n%!"
    iterations seed
    (String.concat "," (List.map fst fault_rates));
  let rng = Xorshift.create seed in
  let escapes = ref 0 and mismatches = ref 0 in
  let failed_docs = ref 0 and ok_docs = ref 0 in
  Fault.reset_counts ();
  for i = 1 to iterations do
    let inst = random_instance rng in
    let doc_of_kind () =
      if Faerie_sim.Sim.char_based inst.sim then random_string rng 5 40
      else random_words rng 3 20
    in
    let docs =
      Array.append [| inst.document |] (Array.init 3 (fun _ -> doc_of_kind ()))
    in
    (match Problem.create ~sim:inst.sim ~q:inst.q inst.entities with
    | problem -> (
        (* Baseline with injection disabled, then the same batch armed. *)
        Fault.disarm ();
        let baseline, _ = Parallel.extract_all_outcomes ~domains:2 problem docs in
        Fault.configure { Fault.seed = mix_seed seed i; rates = fault_rates };
        (match Parallel.extract_all_outcomes ~domains:2 problem docs with
        | outcomes, _ ->
            Array.iteri
              (fun j outcome ->
                match (outcome, baseline.(j)) with
                | Outcome.Failed (Outcome.Injected_fault _), _ ->
                    incr failed_docs
                | Outcome.Ok got, Outcome.Ok want ->
                    incr ok_docs;
                    if got <> want then begin
                      incr mismatches;
                      dump_repro ~seed ~iteration:i inst
                        ~trouble:
                          (Printf.sprintf
                             "fault isolation violated: fault-free document \
                              %d differs from injection-disabled run"
                             j)
                    end
                | _ ->
                    incr escapes;
                    dump_repro ~seed ~iteration:i inst
                      ~trouble:
                        (Printf.sprintf "unexpected outcome for document %d" j))
              outcomes
        | exception exn ->
            incr escapes;
            dump_repro ~seed ~iteration:i inst
              ~trouble:("fault escaped the pipeline: " ^ Printexc.to_string exn));
        (* Codec decode under injection must fail only as Injected/Corrupt. *)
        let data =
          Ix.Codec.encode (Problem.dictionary problem) (Problem.index problem)
        in
        (match
           Fault.with_context (1_000_000 + i) (fun () -> Ix.Codec.decode data)
         with
        | _ -> ()
        | exception Fault.Injected _ -> incr failed_docs
        | exception Ix.Codec.Corrupt _ -> ()
        | exception exn ->
            incr escapes;
            dump_repro ~seed ~iteration:i inst
              ~trouble:("codec fault escaped: " ^ Printexc.to_string exn));
        Fault.disarm ())
    | exception exn ->
        Fault.disarm ();
        incr escapes;
        dump_repro ~seed ~iteration:i inst
          ~trouble:("problem build crashed: " ^ Printexc.to_string exn));
    if i mod 500 = 0 then Printf.printf "  %d/%d instances\n%!" i iterations
  done;
  let injected = Fault.injected_count () in
  Printf.printf
    "injected %d faults: %d contained as Failed outcomes, %d fault-free \
     documents identical to the disabled run\n"
    injected !failed_docs !ok_docs;
  if injected <> !failed_docs then begin
    Printf.printf "CONTAINMENT LEAK: %d injected but %d surfaced\n" injected
      !failed_docs;
    exit 1
  end;
  if !escapes > 0 || !mismatches > 0 then begin
    Printf.printf "%d escapes, %d isolation mismatches\n" !escapes !mismatches;
    exit 1
  end;
  Printf.printf "fault containment holds on all %d instances\n" iterations

(* ---- supervised-pool campaign (part of --faults) ---- *)

module Supervisor = Core.Supervisor
module Serve_proto = Core.Serve_proto
module Extractor = Core.Extractor
module Metrics = Faerie_obs.Metrics
module Slo = Faerie_obs.Slo

let supervisor_rates = [ ("supervisor_worker", 0.3); ("tokenize", 0.2) ]

(* Worker-death containment: under supervisor_worker faults (which kill the
   worker domain holding the document, outside the per-document containment
   boundary) every submitted document must still reach exactly one outcome,
   quarantine must absorb retry-exhausted documents (no plain Failed when a
   dead-letter sink is armed and every fault is transient), and fault-free
   documents must match a clean run. *)
let run_supervisor_campaign iterations seed =
  Printf.printf "supervisor campaign: %d instances (seed %d), sites %s\n%!"
    iterations seed
    (String.concat "," (List.map fst supervisor_rates));
  let rng = Xorshift.create seed in
  let problems = ref 0 in
  let quarantine = Filename.temp_file "faerie-fuzz-quarantine-" ".ndjson" in
  let total_quarantined = ref 0 in
  let before = Metrics.snapshot () in
  let config =
    {
      Supervisor.domains = 3;
      retry = { Supervisor.default_retry with retries = 1; backoff_ms = 0 };
      queue_capacity = 16;
      quarantine = Some quarantine;
      shed = false;
      shard = None;
    }
  in
  for i = 1 to iterations do
    let inst = random_instance rng in
    let doc_of_kind () =
      if Faerie_sim.Sim.char_based inst.sim then random_string rng 5 40
      else random_words rng 3 20
    in
    let docs =
      Array.append [| inst.document |] (Array.init 7 (fun _ -> doc_of_kind ()))
    in
    (match Problem.create ~sim:inst.sim ~q:inst.q inst.entities with
    | problem -> (
        Fault.disarm ();
        let baseline, _ = Parallel.extract_all_outcomes ~domains:2 problem docs in
        Fault.configure
          { Fault.seed = mix_seed seed i; rates = supervisor_rates };
        (match Supervisor.run_batch ~config problem docs with
        | outcomes, summary ->
            if Array.length outcomes <> Array.length docs then begin
              incr problems;
              dump_repro ~seed ~iteration:i inst
                ~trouble:"supervisor lost or duplicated documents"
            end;
            if
              summary.Outcome.n_ok + summary.Outcome.n_degraded
              + summary.Outcome.n_failed + summary.Outcome.n_shed
              + summary.Outcome.n_quarantined
              <> summary.Outcome.n_docs
            then begin
              incr problems;
              dump_repro ~seed ~iteration:i inst
                ~trouble:"summary classes do not sum to n_docs"
            end;
            total_quarantined := !total_quarantined + summary.Outcome.n_quarantined;
            Array.iteri
              (fun j outcome ->
                match (outcome, baseline.(j)) with
                | Outcome.Failed (Outcome.Quarantined _), _ -> ()
                | Outcome.Failed err, _ ->
                    (* All armed sites produce transient errors and a
                       quarantine sink is configured, so a plain Failed
                       means a document slipped past the dead-letter path. *)
                    incr problems;
                    dump_repro ~seed ~iteration:i inst
                      ~trouble:
                        (Printf.sprintf
                           "document %d ended plain Failed (%s) despite \
                            quarantine"
                           j
                           (Outcome.error_to_string err))
                | Outcome.Ok got, Outcome.Ok want ->
                    if got <> want then begin
                      incr problems;
                      dump_repro ~seed ~iteration:i inst
                        ~trouble:
                          (Printf.sprintf
                             "supervised document %d differs from clean run" j)
                    end
                | _ -> ())
              outcomes
        | exception exn ->
            incr problems;
            dump_repro ~seed ~iteration:i inst
              ~trouble:
                ("worker death escaped the supervisor: "
                ^ Printexc.to_string exn));
        Fault.disarm ())
    | exception exn ->
        Fault.disarm ();
        incr problems;
        dump_repro ~seed ~iteration:i inst
          ~trouble:("problem build crashed: " ^ Printexc.to_string exn))
  done;
  let after = Metrics.snapshot () in
  let delta name =
    Metrics.counter_value after name - Metrics.counter_value before name
  in
  let restarts = delta "worker_restarts" in
  let quarantined = delta "docs_quarantined" in
  Printf.printf
    "supervisor: %d worker restarts, %d retries, %d quarantined, %d shed\n"
    restarts (delta "doc_retries") quarantined (delta "docs_shed");
  if quarantined <> !total_quarantined then begin
    Printf.printf "QUARANTINE MISCOUNT: counter %d vs summaries %d\n"
      quarantined !total_quarantined;
    exit 1
  end;
  (* Every dead-letter line must be a parseable, self-contained record. *)
  let lines = ref [] in
  let ic = open_in quarantine in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  if List.length !lines <> !total_quarantined then begin
    Printf.printf "QUARANTINE FILE MISCOUNT: %d lines vs %d outcomes\n"
      (List.length !lines) !total_quarantined;
    exit 1
  end;
  List.iter
    (fun line ->
      match Supervisor.Quarantine.of_json line with
      | Ok _ -> ()
      | Error e ->
          Printf.printf "UNPARSEABLE QUARANTINE RECORD (%s): %s\n" e line;
          exit 1)
    !lines;
  Sys.remove quarantine;
  if restarts = 0 && iterations > 0 then begin
    Printf.printf "NO WORKER RESTARTS: supervisor_worker site never fired?\n";
    exit 1
  end;
  if !problems > 0 then begin
    Printf.printf "%d supervisor containment problems\n" !problems;
    exit 1
  end;
  Printf.printf "zero lost documents across %d supervised batches\n" iterations

(* ---- request-decode campaign (part of --faults) ---- *)

let run_serve_decode_campaign iterations seed =
  Printf.printf "serve_decode campaign: %d requests (seed %d)\n%!" iterations
    seed;
  Fault.reset_counts ();
  Fault.configure { Fault.seed; rates = [ ("serve_decode", 0.5) ] };
  let errors = ref 0 in
  for i = 1 to iterations do
    match Serve_proto.parse_request ~ord:i {|{"text":"aa bb cc"}|} with
    | Ok _ -> ()
    | Error _ -> incr errors
    | exception exn ->
        Fault.disarm ();
        Printf.printf "DECODE FAULT ESCAPED: %s\n" (Printexc.to_string exn);
        exit 1
  done;
  Fault.disarm ();
  let injected = Fault.injected_count () in
  if injected <> !errors then begin
    Printf.printf "DECODE CONTAINMENT LEAK: %d injected but %d errors\n"
      injected !errors;
    exit 1
  end;
  Printf.printf "all %d injected decode faults surfaced as error responses\n"
    injected

(* ---- cluster shard-kill campaign (part of --faults) ---- *)

module Cluster = Core.Cluster

let cluster_rates = [ ("shard_frame", 0.25); ("supervisor_worker", 0.15) ]

(* Zero-lost-documents under shard-process deaths: with shard_frame faults
   armed (which kill the whole shard process, outside every containment
   boundary the shard has) every document fanned through the cluster must
   still reach exactly one merged outcome. Failures must ride the
   dead-letter path (Quarantined), never surface as plain Failed, and Ok
   merges must be byte-identical to a clean single-process run regardless
   of the shard count. Iterations are few — each forks a fresh cluster —
   but every one cycles a different shard count over the same documents.

   This campaign must run BEFORE any phase that spawns domains: once a
   domain has ever been created in a process, Unix.fork refuses outright
   (not merely while domains are live), so the coordinator here computes
   its clean baseline with the plain single-threaded extractor. *)
let run_cluster_campaign iterations seed =
  Printf.printf "cluster campaign: %d clusters (seed %d), sites %s\n%!"
    iterations seed
    (String.concat "," (List.map fst cluster_rates));
  let rng = Xorshift.create seed in
  let problems = ref 0 in
  let quarantine = Filename.temp_file "faerie-fuzz-cluster-q-" ".ndjson" in
  let restarts = ref 0 in
  let qpairs = ref 0 in
  let shard_quarantined = ref 0 in
  let partials = ref 0 in
  let shard_counts = [| 1; 2; 4 |] in
  for i = 1 to iterations do
    let inst = random_instance rng in
    let doc_of_kind () =
      if Faerie_sim.Sim.char_based inst.sim then random_string rng 5 40
      else random_words rng 3 20
    in
    let docs =
      Array.append [| inst.document |] (Array.init 5 (fun _ -> doc_of_kind ()))
    in
    let shards = shard_counts.(i mod Array.length shard_counts) in
    (match Problem.create ~sim:inst.sim ~q:inst.q inst.entities with
    | problem -> (
        Fault.disarm ();
        let baseline =
          let ex = Extractor.of_problem problem in
          Array.map
            (fun d -> Parallel.outcome_of_report (Extractor.run ex (`Text d)))
            docs
        in
        Fault.configure { Fault.seed = mix_seed seed i; rates = cluster_rates };
        let config =
          {
            Cluster.shards;
            pool =
              {
                Supervisor.domains = 1;
                retry =
                  { Supervisor.default_retry with retries = 1; backoff_ms = 0 };
                queue_capacity = 8;
                quarantine = Some quarantine;
                shed = false;
                shard = None;
              };
            retry =
              { Supervisor.default_retry with retries = 3; backoff_ms = 0 };
            shard_timeout_ms = None;
            pruning = Types.Binary_window;
            budget = Faerie_util.Budget.spec_unlimited;
            snapshot_dir = None;
            slow_stages = false;
          }
        in
        (match
           Cluster.run_batch ~config ~sim:inst.sim ~q:inst.q
             ~entities:inst.entities docs
         with
        | outcomes, summary, totals ->
            restarts := !restarts + totals.Cluster.shard_restarts;
            qpairs := !qpairs + totals.Cluster.quarantined_pairs;
            shard_quarantined :=
              !shard_quarantined + totals.Cluster.shard_quarantined;
            partials := !partials + totals.Cluster.docs_partial;
            if Array.length outcomes <> Array.length docs then begin
              incr problems;
              dump_repro ~seed ~iteration:i inst
                ~trouble:
                  (Printf.sprintf
                     "cluster (%d shards) lost or duplicated documents: %d of \
                      %d"
                     shards (Array.length outcomes) (Array.length docs))
            end;
            if
              summary.Outcome.n_ok + summary.Outcome.n_degraded
              + summary.Outcome.n_failed + summary.Outcome.n_shed
              + summary.Outcome.n_quarantined
              <> summary.Outcome.n_docs
            then begin
              incr problems;
              dump_repro ~seed ~iteration:i inst
                ~trouble:"cluster summary classes do not sum to n_docs"
            end;
            Array.iteri
              (fun j outcome ->
                match (outcome, baseline.(j)) with
                | Outcome.Failed (Outcome.Quarantined _), _ -> ()
                | Outcome.Failed err, _ ->
                    (* Every armed fault is transient and the dead-letter
                       sink is configured: a plain Failed means a (doc,
                       shard) pair slipped past quarantine. *)
                    incr problems;
                    dump_repro ~seed ~iteration:i inst
                      ~trouble:
                        (Printf.sprintf
                           "document %d ended plain Failed (%s) despite \
                            quarantine (%d shards)"
                           j
                           (Outcome.error_to_string err)
                           shards)
                | Outcome.Ok got, Outcome.Ok want ->
                    (* Both sides list matches in the one served order. *)
                    if got <> want then begin
                      incr problems;
                      dump_repro ~seed ~iteration:i inst
                        ~trouble:
                          (Printf.sprintf
                             "document %d merged across %d shards differs \
                              from clean run"
                             j shards)
                    end
                | _ -> ())
              outcomes
        | exception exn ->
            incr problems;
            dump_repro ~seed ~iteration:i inst
              ~trouble:
                (Printf.sprintf "shard death escaped the coordinator (%d \
                                 shards): %s"
                   shards (Printexc.to_string exn)));
        Fault.disarm ())
    | exception exn ->
        Fault.disarm ();
        incr problems;
        dump_repro ~seed ~iteration:i inst
          ~trouble:("problem build crashed: " ^ Printexc.to_string exn))
  done;
  Printf.printf
    "cluster: %d shard restarts, %d quarantined pairs, %d in-shard \
     quarantines, %d partial documents\n"
    !restarts !qpairs !shard_quarantined !partials;
  (* Every dead-letter line — written by coordinator and shard processes
     alike through Append_log — must be a complete, parseable,
     self-contained record, and every *counted* write-off must have a
     line. The file may hold more lines than the totals: in-shard
     quarantine counts travel in the shard's Bye reply, so an incarnation
     killed after appending its record but before saying Bye leaves a
     durable (and replayable) line the totals never see. The appended
     record outliving its process is the point; the count is best-effort. *)
  let lines = ref [] in
  let ic = open_in quarantine in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let n_lines = List.length !lines in
  if n_lines < !qpairs + !shard_quarantined then begin
    Printf.printf "CLUSTER QUARANTINE MISCOUNT: %d lines vs %d + %d totals\n"
      n_lines !qpairs !shard_quarantined;
    exit 1
  end;
  List.iter
    (fun line ->
      match Supervisor.Quarantine.of_json line with
      | Ok _ -> ()
      | Error e ->
          Printf.printf "TORN OR UNPARSEABLE CLUSTER RECORD (%s): %s\n" e line;
          exit 1)
    !lines;
  Sys.remove quarantine;
  if !restarts = 0 && iterations > 0 then begin
    Printf.printf "NO SHARD RESTARTS: shard_frame site never fired?\n";
    exit 1
  end;
  if !problems > 0 then begin
    Printf.printf "%d cluster containment problems\n" !problems;
    exit 1
  end;
  Printf.printf "zero lost documents across %d sharded clusters\n" iterations

(* ---- observability campaign (part of --faults) ---- *)

module Json = Faerie_util.Json
module Obs_trace = Faerie_obs.Trace

let random_snapshot rng =
  let counters =
    List.init (Xorshift.int_in_range rng ~lo:0 ~hi:5) (fun i ->
        (Printf.sprintf "m%d" i, Xorshift.int rng 1_000_000))
  in
  let gauges =
    List.init (Xorshift.int_in_range rng ~lo:0 ~hi:4) (fun i ->
        ( Printf.sprintf "g%d" i,
          {
            Metrics.value = float_of_int (Xorshift.int rng 1000);
            agg = (if Xorshift.bool rng then `Sum else `Max);
            label =
              (if Xorshift.bool rng then Some ("fam", "shard", string_of_int i)
               else None);
          } ))
  in
  let histograms =
    List.init (Xorshift.int_in_range rng ~lo:0 ~hi:2) (fun i ->
        let nb = Xorshift.int_in_range rng ~lo:1 ~hi:4 in
        let counts = Array.init (nb + 1) (fun _ -> Xorshift.int rng 50) in
        let exemplars =
          if Xorshift.bool rng then [||]
          else
            Array.init (nb + 1) (fun _ ->
                if Xorshift.bool rng then
                  (1 + Xorshift.int rng 1000, float_of_int (Xorshift.int rng 900))
                else (0, 0.))
        in
        ( Printf.sprintf "h%d" i,
          {
            Metrics.upper = Array.init nb (fun j -> float_of_int ((j + 1) * 10));
            counts;
            sum = float_of_int (Xorshift.int rng 500);
            count = Array.fold_left ( + ) 0 counts;
            exemplars;
          } ))
  in
  { Metrics.counters; gauges; histograms }

(* Nanosecond int64s beyond 2^53 are exactly the values a JSON double
   would silently round; draw starts across the whole positive range. *)
let random_span rng =
  {
    Obs_trace.name = random_string rng 1 8;
    start_ns =
      Int64.logor
        (Int64.shift_left (Int64.of_int (Xorshift.int rng 0x3FFFFFFF)) 32)
        (Int64.of_int (Xorshift.int rng 0xFFFFFF));
    dur_ns = Int64.of_int (Xorshift.int rng 1_000_000_000);
    depth = Xorshift.int rng 8;
    domain = Xorshift.int rng 16;
    trace = Xorshift.int rng 1000;
    ok = Xorshift.bool rng;
    attrs =
      (if Xorshift.bool rng then [ ("k\"x", "v\nw"); ("doc", "7") ] else []);
  }

let random_admin_line rng =
  match Xorshift.int rng 7 with
  | 0 -> {|{"op":"stats"}|}
  | 1 -> {|{"op":"health"}|}
  | 2 -> Printf.sprintf {|{"op":"%s"}|} (random_string rng 0 6)
  | 3 -> Printf.sprintf {|{"text":"%s"}|} (random_string rng 0 10)
  | 4 -> Printf.sprintf {|{"op":"stats","v":%d}|} (Xorshift.int rng 4)
  | 5 -> {|{"op":"slowlog"}|}
  | _ -> random_string rng 0 20

let random_slowrec rng =
  let sims = [| Sim.Edit_distance 1; Sim.Edit_distance 2; Sim.Jaccard 0.8 |] in
  let prunings = Array.of_list Types.all_prunings in
  let opt f = if Xorshift.bool rng then Some (f ()) else None in
  {
    Serve_proto.Slowrec.doc_id = Xorshift.int rng 10_000;
    id = opt (fun () -> random_string rng 0 6);
    trace = Xorshift.int rng 1000;
    gen = Xorshift.int rng 10;
    wall_ms = float_of_int (Xorshift.int rng 100_000) /. 10.;
    outcome = Xorshift.choose rng [| "ok"; "degraded"; "failed" |];
    stages_ms =
      List.init (Xorshift.int rng 5) (fun i ->
          ( Printf.sprintf "stage%d" i,
            float_of_int (Xorshift.int rng 10_000) /. 100. ));
    sim = Xorshift.choose rng sims;
    q = Xorshift.int_in_range rng ~lo:1 ~hi:4;
    pruning = Xorshift.choose rng prunings;
    budget =
      {
        Faerie_util.Budget.timeout_ms = opt (fun () -> Xorshift.int rng 10_000);
        max_bytes = opt (fun () -> Xorshift.int rng 100_000);
        max_candidates = opt (fun () -> Xorshift.int rng 1_000);
      };
    fault =
      opt (fun () ->
          {
            Fault.seed = Xorshift.int rng 1_000_000;
            rates = [ ("verify", 0.5); ("tokenize", 0.01) ];
          });
    text = random_words rng 0 6;
  }

let random_slo_spec rng =
  match Xorshift.int rng 5 with
  | 0 -> Printf.sprintf "p%d=%dms" (Xorshift.int_in_range rng ~lo:1 ~hi:99)
            (1 + Xorshift.int rng 5000)
  | 1 -> Printf.sprintf "avail=9%d.%d" (Xorshift.int rng 10) (Xorshift.int rng 10)
  | 2 -> Printf.sprintf "p99=%ds,avail=99.9" (1 + Xorshift.int rng 9)
  | 3 -> random_string rng 0 12
  | _ -> Printf.sprintf "%s=%s" (random_string rng 0 4) (random_string rng 0 4)

(* The observability surface: the metrics-snapshot and trace-span wire
   codecs must round-trip full-fidelity through their rendered strings,
   parse_admin must classify any line without raising, and a stats pull
   against a cluster whose shards are being killed at the shard_stats
   site must return a partial merge within the deadline — never a hang,
   never an exception — while the cluster keeps serving documents.

   Forks shard processes, so this must run in the pre-domain phase. *)
let run_obs_campaign iterations seed =
  Printf.printf "observability campaign: %d codec instances (seed %d)\n%!"
    iterations seed;
  let rng = Xorshift.create (mix_seed seed 77) in
  for _ = 1 to iterations do
    let snap = random_snapshot rng in
    (match Json.of_string (Json.to_string (Metrics.snapshot_to_wire snap)) with
    | Ok j when Metrics.snapshot_of_wire j = Some snap -> ()
    | _ ->
        Printf.printf "SNAPSHOT CODEC MISMATCH: %s\n"
          (Json.to_string (Metrics.snapshot_to_wire snap));
        exit 1);
    let sp = random_span rng in
    (match Json.of_string (Json.to_string (Obs_trace.span_to_json sp)) with
    | Ok j when Obs_trace.span_of_json j = Some sp -> ()
    | _ ->
        Printf.printf "SPAN CODEC MISMATCH: %s\n"
          (Json.to_string (Obs_trace.span_to_json sp));
        exit 1);
    let r = random_slowrec rng in
    let line = Json.to_string (Serve_proto.Slowrec.to_json r) in
    (match Serve_proto.Slowrec.of_json line with
    | Ok r' when r' = r -> ()
    | Ok _ ->
        Printf.printf "SLOWREC CODEC MISMATCH: %s\n" line;
        exit 1
    | Error e ->
        Printf.printf "SLOWREC CODEC REJECTED ITS OWN OUTPUT (%s): %s\n" e line;
        exit 1);
    let spec = random_slo_spec rng in
    (match Slo.parse spec with
    | Ok o ->
        (* a parsed objective must render to something that re-parses *)
        if Slo.parse (Slo.to_string o) = Ok o then ()
        else begin
          Printf.printf "SLO RENDER/REPARSE MISMATCH on %S -> %S\n" spec
            (Slo.to_string o);
          exit 1
        end
    | Error _ -> ()
    | exception exn ->
        Printf.printf "SLO.PARSE RAISED on %S: %s\n" spec
          (Printexc.to_string exn);
        exit 1);
    let line = random_admin_line rng in
    match Serve_proto.parse_admin line with
    | Some _ | None -> ()
    | exception exn ->
        Printf.printf "PARSE_ADMIN RAISED on %S: %s\n" line
          (Printexc.to_string exn);
        exit 1
  done;
  Printf.printf
    "snapshot/span/slowrec codecs, Slo.parse and parse_admin survived %d \
     instances\n"
    iterations;
  let pulls = max 5 (iterations / 100) in
  Fault.configure
    { Fault.seed = mix_seed seed 78; rates = [ ("shard_stats", 0.5) ] };
  let config =
    {
      Cluster.default_config with
      Cluster.shards = 3;
      pool =
        {
          Supervisor.domains = 1;
          retry = { Supervisor.default_retry with retries = 1; backoff_ms = 0 };
          queue_capacity = 8;
          quarantine = None;
          shed = false;
          shard = None;
        };
      retry = { Supervisor.default_retry with retries = 3; backoff_ms = 0 };
      shard_timeout_ms = Some 5000;
    }
  in
  let cluster =
    Cluster.create ~config ~sim:(Sim.Edit_distance 1) ~q:2 (fun () ->
        [ "aabb"; "bbcc" ])
  in
  let partial = ref 0 in
  (try
     for i = 1 to pulls do
       let merged, per_shard = Cluster.stats cluster in
       if List.length per_shard <> 3 then begin
         Printf.printf "STATS PULL LOST A SHARD SLOT: %d of 3\n"
           (List.length per_shard);
         exit 1
       end;
       List.iter
         (fun (_, s) -> if s = None then incr partial)
         per_shard;
       ignore (Metrics.counter_value merged "docs_processed");
       match Cluster.submit cluster ~doc:i "aabb ccdd" with
       | Outcome.Ok _ | Outcome.Degraded _ -> ()
       | out ->
           Printf.printf "CLUSTER STOPPED SERVING AFTER STATS KILLS: %s\n"
             (match out with
             | Outcome.Failed e -> Outcome.error_to_string e
             | _ -> "?");
           exit 1
     done
   with exn ->
     Printf.printf "STATS PULL ESCAPED: %s\n" (Printexc.to_string exn);
     exit 1);
  Fault.disarm ();
  Cluster.shutdown cluster;
  if !partial = 0 then begin
    Printf.printf "NO PARTIAL STATS PULLS: shard_stats site never fired?\n";
    exit 1
  end;
  Printf.printf
    "%d partial shard snapshots across %d stats pulls, cluster kept serving\n"
    !partial pulls

(* ---- quarantine replay (--replay) ---- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

(* Replay each dead-letter record: rebuild the problem from the dictionary
   and the record's sim/q, re-arm the recorded fault campaign, and re-run
   the document under its original fault key (the first attempt's key is
   the plain doc id; cluster coordinator records carry the shard-salted
   key). The record reproduces iff the document fails again — a shard
   death at the shard_frame site, a worker death at the supervisor_worker
   site, or a contained Failed outcome.

   Slow-query records (serve --slowlog; discriminated by "kind":"slowlog")
   share the stream and the replay machinery, but most captured a request
   that SUCCEEDED slowly, so their bar is different: the record reproduces
   iff re-running the document yields the same outcome class (an injected
   crash counts as "failed").

   Both record kinds carry the dictionary generation they were captured
   under; a record whose [gen] differs from [expected_gen] (the --gen
   flag, i.e. the generation --dict holds) is refused with an error
   rather than replayed against the wrong dictionary. *)
let run_replay ~replay_file ~dict_file ~expected_gen =
  let entities = Problem.read_entities dict_file in
  let records = read_lines replay_file in
  let failures = ref 0 in
  (* Generation gate: a record captured under a different dictionary
     generation must not be replayed — refuse it loudly instead of
     producing a meaningless (non-)reproduction. *)
  let gen_mismatch ~idx ~kind ~doc_id record_gen =
    if record_gen = expected_gen then false
    else begin
      incr failures;
      Printf.printf
        "record %d (%s doc %d): GENERATION MISMATCH — captured at dictionary \
         generation %d but --dict is generation %d; refusing replay (pass \
         --gen=%d with the matching dictionary snapshot)\n"
        idx kind doc_id record_gen expected_gen record_gen;
      true
    end
  in
  (* Shared single-process re-run: rebuild, re-arm, extract under the
     recorded fault key, classify. *)
  let rerun ~sim ~q ~fault ~pruning ~budget ~doc_id text =
    let problem = Problem.create ~sim ~q entities in
    (match fault with
    | Some cfg -> Fault.configure cfg
    | None -> Fault.disarm ());
    let opts = { Extractor.default_opts with pruning; budget; doc_id } in
    let ex = Extractor.of_problem problem in
    let cls =
      match
        Fault.with_context doc_id (fun () ->
            Fault.site "shard_frame";
            Fault.site "supervisor_worker");
        Extractor.run ~opts ex (`Text text)
      with
      | report -> Outcome.class_name (Outcome.classify report.Extractor.outcome)
      | exception Fault.Injected _ -> "failed"
    in
    Fault.disarm ();
    cls
  in
  List.iteri
    (fun idx line ->
      match Serve_proto.Slowrec.of_json line with
      | Ok r
        when gen_mismatch ~idx ~kind:"slowlog"
               ~doc_id:r.Serve_proto.Slowrec.doc_id r.Serve_proto.Slowrec.gen ->
          ()
      | Ok r ->
          let cls =
            rerun ~sim:r.Serve_proto.Slowrec.sim ~q:r.Serve_proto.Slowrec.q
              ~fault:r.Serve_proto.Slowrec.fault
              ~pruning:r.Serve_proto.Slowrec.pruning
              ~budget:r.Serve_proto.Slowrec.budget
              ~doc_id:r.Serve_proto.Slowrec.doc_id r.Serve_proto.Slowrec.text
          in
          if cls = r.Serve_proto.Slowrec.outcome then
            Printf.printf "record %d (slowlog doc %d): reproduced — %s\n" idx
              r.Serve_proto.Slowrec.doc_id cls
          else begin
            incr failures;
            Printf.printf
              "record %d (slowlog doc %d): DID NOT REPRODUCE (%s, recorded %s)\n"
              idx r.Serve_proto.Slowrec.doc_id cls r.Serve_proto.Slowrec.outcome
          end
      | Error _ -> (
          match Supervisor.Quarantine.of_json line with
          | Error e ->
              incr failures;
              Printf.printf "record %d: unparseable (%s)\n" idx e
          | Ok r
            when gen_mismatch ~idx ~kind:"quarantine"
                   ~doc_id:r.Supervisor.Quarantine.doc_id
                   r.Supervisor.Quarantine.gen ->
              ()
          | Ok r ->
              let cls =
                rerun ~sim:r.Supervisor.Quarantine.sim
                  ~q:r.Supervisor.Quarantine.q
                  ~fault:r.Supervisor.Quarantine.fault
                  ~pruning:r.Supervisor.Quarantine.pruning
                  ~budget:r.Supervisor.Quarantine.budget
                  ~doc_id:r.Supervisor.Quarantine.doc_id
                  r.Supervisor.Quarantine.text
              in
              if cls = "failed" then
                Printf.printf "record %d (doc %d): reproduced — %s\n" idx
                  r.Supervisor.Quarantine.doc_id r.Supervisor.Quarantine.error
              else begin
                incr failures;
                Printf.printf "record %d (doc %d): DID NOT REPRODUCE\n" idx
                  r.Supervisor.Quarantine.doc_id
              end))
    records;
  if !failures > 0 then begin
    Printf.printf "%d of %d records failed to reproduce\n" !failures
      (List.length records);
    exit 1
  end;
  Printf.printf "all %d records reproduce\n" (List.length records)

let () =
  let faults = ref false in
  let replay = ref None in
  let dict = ref None in
  let gen = ref 0 in
  let positional = ref [] in
  let prefixed ~prefix arg =
    if String.length arg > String.length prefix
       && String.sub arg 0 (String.length prefix) = prefix
    then
      Some
        (String.sub arg (String.length prefix)
           (String.length arg - String.length prefix))
    else None
  in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if arg = "--faults" then faults := true
        else
          match prefixed ~prefix:"--replay=" arg with
          | Some f -> replay := Some f
          | None -> (
              match prefixed ~prefix:"--dict=" arg with
              | Some f -> dict := Some f
              | None -> (
                  match prefixed ~prefix:"--gen=" arg with
                  | Some g -> gen := int_of_string g
                  | None -> positional := int_of_string arg :: !positional)))
    Sys.argv;
  let positional = List.rev !positional in
  let iterations = match positional with n :: _ -> n | [] -> 2_000 in
  let seed =
    match positional with
    | _ :: s :: _ -> s
    | _ -> int_of_float (Unix.gettimeofday () *. 1000.) land 0xFFFFFF
  in
  match (!replay, !dict) with
  | Some replay_file, Some dict_file ->
      run_replay ~replay_file ~dict_file ~expected_gen:!gen
  | Some _, None ->
      prerr_endline "fuzz: --replay requires --dict=FILE";
      exit 2
  | None, _ ->
      if !faults then begin
        (* Cluster first: it forks shard processes, and Unix.fork refuses
           in any process that has ever spawned a domain — which every
           later phase does. *)
        run_cluster_campaign (max 1 (iterations / 50)) seed;
        run_obs_campaign iterations seed;
        run_fault_campaign iterations seed;
        run_supervisor_campaign (max 1 (iterations / 10)) seed;
        run_serve_decode_campaign iterations seed
      end
      else run_differential iterations seed
