module Budget = Faerie_util.Budget
module Fault = Faerie_util.Fault
module Dynarray = Faerie_util.Dynarray
module Sim = Faerie_sim.Sim
module Ix = Faerie_index
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Prof = Faerie_obs.Prof
module Slowlog = Faerie_obs.Slowlog
module Sampling = Faerie_obs.Sampling
module Build_info = Faerie_obs.Build_info
module Frame = Serve_proto.Frame
module Shard = Serve_proto.Shard

let m_shard_restarts =
  Metrics.counter ~help:"shard processes restarted after a crash or deadline miss"
    "shard_restarts"

let m_shard_timeouts =
  Metrics.counter ~help:"per-shard response deadline misses" "shard_timeouts"

let m_docs_partial =
  Metrics.counter
    ~help:"documents answered with a Shard_partial degradation (some shards missing)"
    "docs_partial"

let m_quarantined_pairs =
  Metrics.counter
    ~help:"(doc, shard) pairs written off to the dead-letter file"
    "quarantined_pairs"

let g_cluster_shards =
  Metrics.gauge ~help:"configured shard processes" ~agg:`Max "cluster_shards"

(* Same name Delta registers shard-side; the coordinator counts cluster
   compactions (shards see them as Prepare/Commit, never Delta.compact). *)
let m_compactions = Metrics.counter "compactions"

type config = {
  shards : int;
  pool : Supervisor.config;
  retry : Supervisor.retry;
  shard_timeout_ms : int option;
  pruning : Types.pruning;
  budget : Budget.spec;
  snapshot_dir : string option;
  slow_stages : bool;
      (* arm each shard's slowlog stage scratch so Result frames carry a
         per-stage wall breakdown; off by default, so shards without a
         slowlog to feed skip the stage brackets and the extra field *)
}

let default_config =
  {
    shards = 2;
    pool = { Supervisor.default_config with domains = 1 };
    retry = Supervisor.default_retry;
    shard_timeout_ms = None;
    pruning = Types.Binary_window;
    budget = Budget.spec_unlimited;
    snapshot_dir = None;
    slow_stages = false;
  }

(* How long to wait for a freshly spawned shard's Ready frame (it has to
   load its index snapshot first), and for prepare/commit/bye handshakes. *)
let handshake_timeout_ms = 60_000

let spawn_attempts = 3

(* One journaled mutation routed to a shard since the last snapshot
   generation. Adds remember the global id the coordinator assigned, so a
   journal replay into a freshly respawned shard can re-pair the shard's
   deterministic local ids with the global ones. *)
type jentry = J_add of { raw : string; global : int } | J_remove of string

type slot = {
  sid : int;
  up_gauge : Metrics.gauge;
  mutable pid : int;
  mutable wfd : Unix.file_descr;  (* coordinator -> shard *)
  mutable rd : Frame.reader;  (* shard -> coordinator *)
  mutable range : Shard_plan.range;
  mutable snapshot : string;
  mutable up : bool;
  mutable restarts : int;  (* times this slot's process was respawned *)
  mutable offset_ns : int64;
      (* coordinator clock minus shard clock, measured at the Ready
         handshake; re-bases shard span timestamps for trace grafting *)
  mutable bye : (int * int) option;  (* worker restarts, quarantined (from Bye) *)
  addmap : (int, int) Hashtbl.t;
      (* shard-local added-entity id -> global id; rebuilt by journal
         replay on every respawn, cleared at each snapshot generation *)
  mutable journal : jentry list;
      (* mutations routed to this shard since the serving generation's
         snapshot, newest first; replayed into a respawned shard so a
         crash loses no mutation *)
}

type totals = {
  shard_restarts : int;
  shard_timeouts : int;
  docs_partial : int;
  quarantined_pairs : int;
  worker_restarts : int;
  shard_quarantined : int;
}

type t = {
  config : config;
  sim : Sim.t;
  q : int;
  load : unit -> string list;
  dir : string;
  own_dir : bool;
  sink : Supervisor.Quarantine.sink option;
  slots : slot array;
  mutable generation : int;
  mutable restarts : int;
  mutable timeouts : int;
  mutable partials : int;
  mutable qpairs : int;
  mutable closed : bool;
  (* ---- dynamic-dictionary bookkeeping (authoritative, coordinator-side;
     shards mirror it through routed frames + journal replay) ---- *)
  mutable ents : string Dynarray.t;  (* global entity id -> raw *)
  by_raw : (string, int) Hashtbl.t;  (* live raw -> global id *)
  dead_ids : (int, unit) Hashtbl.t;  (* tombstoned global ids *)
  mutable base_top : int;
      (* ids below this are range-partitioned (snapshot entities); ids at
         or above round-robin via Shard_plan.owner_dyn *)
  mutable pending_muts : int;  (* mutations since the serving snapshot *)
  mutable last_compact_ns : int64;
      (* when the serving snapshot generation was adopted *)
}

let generation t = t.generation

let deadline_in_ms ms =
  Int64.add (Trace.now_ns ()) (Int64.of_int (ms * 1_000_000))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* ---- shard process main (runs in the forked child) ---- *)

let shard_main ~(config : config) ~sid ~gen0 ~sim ~snapshot ~rfd ~wfd =
  (* The coordinator owns SIGHUP-driven reloads and terminal lifecycle;
     a shard must not die to either signal mid-frame. *)
  (try Sys.set_signal Sys.sighup Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* Fork hygiene. The child inherits the coordinator's metric values (a
     Stats_reply would re-count them and the cluster merge would double),
     any injected test clock (shard spans must carry real timestamps the
     coordinator re-bases against the Ready offset), buffered coordinator
     spans, and a possibly armed --stats-interval-s SIGALRM timer. Zero
     all four before serving. *)
  (try Sys.set_signal Sys.sigalrm Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try
     ignore
       (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. })
   with Unix.Unix_error _ -> ());
  Metrics.reset ();
  Trace.reset ();
  Trace.set_clock None;
  (* Re-establish process-identity metrics the reset just zeroed (the
     revision is memoized pre-fork, so this never shells out), and arm
     the per-domain stage scratch when the coordinator wants stage
     breakdowns in Result frames. *)
  Build_info.note ();
  if config.slow_stages then Slowlog.arm_stages ();
  (* Each snapshot load is a live dictionary cell, so routed
     dict_add/dict_remove frames can mutate this shard's slice online. *)
  let load ~gen path = Live_dict.create ~gen ~sim (snd (Ix.Codec.load path)) in
  let live = load ~gen:gen0 snapshot in
  let pending = ref None in
  let pool =
    Supervisor.create
      ~config:{ config.pool with Supervisor.shard = Some sid }
      (fun () -> Live_dict.extractor live)
  in
  Supervisor.note_generation pool gen0;
  let wlock = Mutex.create () in
  let send reply =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () -> Frame.write wfd (Shard.reply_to_string reply))
  in
  send (Shard.Ready { shard = sid; gen = gen0; now_ns = Trace.now_ns () });
  let rd = Frame.reader rfd in
  let rec loop () =
    match Frame.read rd with
    | `Eof ->
        (* Coordinator is gone (crash or non-handshake teardown): stop
           without draining so we never block on a dead parent. *)
        Supervisor.shutdown ~drain:false pool
    | `Timeout -> loop ()
    | `Corrupt msg -> failwith ("shard frame stream corrupt: " ^ msg)
    | `Frame payload -> (
        match Shard.msg_of_string payload with
        | Error e ->
            send (Shard.Refused { error = Serve_proto.parse_error_to_string e });
            loop ()
        | Ok (Shard.Doc { doc; attempt; timeout_ms; text; trace }) ->
            let key = Supervisor.shard_fault_key ~doc_id:doc ~shard:sid ~attempt in
            (* Deliberately outside any containment: an injection here is a
               shard-process crash (the exception unwinds to the fork
               wrapper, which exits the process abnormally). *)
            Fault.with_context key (fun () -> Fault.site "shard_frame");
            (* A traced doc frame is the coordinator telling us to record:
               the recording flag is process-local and this child may have
               been forked before tracing was enabled over there. Selective
               mode keeps the buffer from accumulating spans of the
               untraced (unsampled) documents between traced ones. *)
            if trace <> None && not (Trace.enabled ()) then begin
              Trace.enable ();
              Trace.set_selective true
            end;
            let budget =
              {
                config.budget with
                Budget.timeout_ms =
                  (match timeout_ms with
                  | Some _ as o -> o
                  | None -> config.budget.Budget.timeout_ms);
              }
            in
            let opts =
              { Extractor.default_opts with pruning = config.pruning; budget }
            in
            ignore
              (Supervisor.submit pool ~opts ~doc_id:key ?trace text
                 ~on_done:(fun outcome ->
                   (* The coordinator keeps at most one doc in flight per
                      shard, so draining here cannot steal spans of a
                      concurrent request; the trace-id filter drops spans
                      of unrelated shard-local activity. *)
                   let spans =
                     match trace with
                     | Some (tid, _) ->
                         List.filter
                           (fun s -> s.Trace.trace = tid)
                           (Trace.drain ())
                     | None -> []
                   in
                   (* The completion callback runs on the worker domain
                      that extracted, so the sealed stage scratch read
                      here is this document's. *)
                   let stages =
                     if not config.slow_stages then []
                     else
                       Option.fold ~none:[] ~some:Slowlog.stages
                         (Slowlog.last_doc ())
                   in
                   let gen = Live_dict.generation live in
                   try send (Shard.Result { doc; gen; outcome; spans; stages })
                   with _ -> ()));
            loop ()
        | Ok (Shard.Prepare { gen; path }) ->
            (match load ~gen path with
            | next ->
                pending := Some next;
                send (Shard.Prepared { gen })
            | exception e ->
                let error =
                  match e with
                  | Ix.Codec.Corrupt m -> "corrupt index: " ^ m
                  | Ix.Codec.Truncated { at; len } ->
                      Printf.sprintf "truncated index (byte %d of %d)" at len
                  | Sys_error m -> m
                  | e -> Printexc.to_string e
                in
                send (Shard.Prepare_failed { gen; error }));
            loop ()
        | Ok (Shard.Commit { gen }) ->
            (match !pending with
            | Some next when Live_dict.generation next = gen ->
                Live_dict.adopt live next;
                Supervisor.note_generation pool gen;
                pending := None;
                send (Shard.Committed { gen })
            | _ ->
                send
                  (Shard.Refused
                     {
                       error =
                         Printf.sprintf
                           "commit of generation %d without a matching prepare"
                           gen;
                     }));
            loop ()
        | Ok (Shard.Abort { gen }) ->
            pending := None;
            send (Shard.Aborted { gen });
            loop ()
        | Ok (Shard.Dict_add { raw }) -> mutate (Faerie_util.Wal.Add raw)
        | Ok (Shard.Dict_remove { raw }) -> mutate (Faerie_util.Wal.Remove raw)
        | Ok Shard.Stats_req ->
            (* Same crash-boundary convention as shard_frame: an injection
               here kills the shard process mid-stats, which the
               coordinator must surface as a flagged partial snapshot —
               never a hang, never a poisoned merge. *)
            Fault.with_context sid (fun () -> Fault.site "shard_stats");
            Prof.note_rss ();
            Supervisor.note_queue_depth pool;
            send (Shard.Stats_reply { shard = sid; snapshot = Metrics.snapshot () });
            loop ()
        | Ok Shard.Shutdown ->
            Supervisor.shutdown pool;
            let quarantined =
              Metrics.counter_value (Metrics.snapshot ()) "docs_quarantined"
            in
            send
              (Shard.Bye
                 { restarts = Supervisor.worker_restarts pool; quarantined }))
  and mutate op =
    let applied, entity = Live_dict.apply live op in
    send (Shard.Mutated { gen = Live_dict.generation live; entity; applied });
    loop ()
  in
  loop ()

(* ---- coordinator ---- *)

(* Fork a shard process over two fresh pipe pairs. The child wraps
   [shard_main] so that NO exception — injected shard_frame faults
   included — can unwind into the parent's OCaml state: any escape turns
   into an abnormal [Unix._exit 2], which the coordinator observes as EOF
   on the response pipe. Must only be called while the coordinator is the
   sole live domain of its process (forking with live worker domains is
   undefined in OCaml 5; shard pools spawn their domains post-fork). *)
let spawn_shard t slot =
  let req_r, req_w = Unix.pipe () in
  let rsp_r, rsp_w = Unix.pipe () in
  let inherited =
    Array.fold_left
      (fun acc s ->
        if s.sid <> slot.sid && s.up then s.wfd :: Frame.reader_fd s.rd :: acc
        else acc)
      [] t.slots
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Unix.close req_w;
          Unix.close rsp_r;
          (* Other shards' pipe ends: holding them open would keep a dead
             sibling's pipes from ever reporting EOF. *)
          List.iter close_quietly inherited;
          shard_main ~config:t.config ~sid:slot.sid ~gen0:t.generation
            ~sim:t.sim ~snapshot:slot.snapshot ~rfd:req_r ~wfd:rsp_w;
          0
        with e ->
          (try
             Printf.eprintf "faerie: shard %d: fatal: %s\n%!" slot.sid
               (Printexc.to_string e)
           with _ -> ());
          2
      in
      Unix._exit code
  | pid ->
      Unix.close req_r;
      Unix.close rsp_w;
      slot.pid <- pid;
      slot.wfd <- req_w;
      slot.rd <- Frame.reader rsp_r;
      slot.up <- true;
      slot.bye <- None

let await_ready t slot =
  match
    Frame.read ~deadline_ns:(deadline_in_ms handshake_timeout_ms) slot.rd
  with
  | `Frame p -> (
      match Shard.reply_of_string p with
      | Ok (Shard.Ready { shard; gen; now_ns }) ->
          shard = slot.sid
          && gen = t.generation
          &&
          ((* The shard stamped its (real) clock into Ready; subtracting
              it from our receive-time clock estimates the per-shard
              offset used to re-base its span timestamps. Includes the
              pipe latency — the lo-clamp in [Trace.graft] absorbs that
              residual. *)
           slot.offset_ns <- Int64.sub (Trace.now_ns ()) now_ns;
           true)
      | Ok _ | Error _ -> false)
  | `Eof | `Timeout | `Corrupt _ -> false

(* Wait for one handshake reply on a slot, tolerating stray Result frames
   (there should be none — handshakes never run with documents in flight —
   but a late frame must not desynchronize the handshake). *)
let await_handshake slot ~deadline =
  let rec go () =
    match Frame.read ~deadline_ns:deadline slot.rd with
    | `Frame p -> (
        match Shard.reply_of_string p with
        | Ok (Shard.Result _) -> go ()
        | Ok reply -> `Reply reply
        | Error _ -> `Dead)
    | `Eof | `Corrupt _ -> `Dead
    | `Timeout -> `Dead
  in
  go ()

(* Re-route every journaled mutation into a freshly (re)spawned shard, in
   original arrival order, rebuilding the local->global add map from the
   replies. The shard's Delta assigns added-entity ids deterministically
   (arrival order over the snapshot base), so a full-journal replay
   reproduces exactly the ids the previous process had — a shard crash
   loses no mutation and changes no extraction result. An empty journal
   sends no frames, keeping the spawn byte-stream identical to a cluster
   that never mutated. *)
let replay_journal slot =
  Hashtbl.reset slot.addmap;
  List.for_all
    (fun entry ->
      let msg, global =
        match entry with
        | J_add { raw; global } -> (Shard.Dict_add { raw }, Some global)
        | J_remove raw -> (Shard.Dict_remove { raw }, None)
      in
      match Frame.write slot.wfd (Shard.msg_to_string msg) with
      | exception (Unix.Unix_error _ | Sys_error _) -> false
      | () -> (
          match
            await_handshake slot ~deadline:(deadline_in_ms handshake_timeout_ms)
          with
          | `Reply (Shard.Mutated { entity; applied; _ }) ->
              (match global with
              | Some g when applied -> Hashtbl.replace slot.addmap entity g
              | _ -> ());
              true
          | `Reply _ | `Dead -> false))
    (List.rev slot.journal)

let kill_slot _t slot =
  if slot.up then begin
    close_quietly slot.wfd;
    close_quietly (Frame.reader_fd slot.rd);
    (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (waitpid_retry slot.pid) with Unix.Unix_error _ -> ());
    slot.up <- false;
    Metrics.set slot.up_gauge 0.
  end

(* Bring a shard (back) up from [slot.snapshot] at the current generation.
   Returns [false] — and leaves the slot down — once [spawn_attempts]
   consecutive spawns fail to reach Ready: a shard whose snapshot cannot be
   served anymore degrades the cluster (Shard_partial answers) instead of
   wedging the coordinator in a respawn loop. *)
let start_slot t slot =
  let rec go k =
    if k > spawn_attempts then false
    else begin
      spawn_shard t slot;
      if await_ready t slot && replay_journal slot then begin
        Metrics.set slot.up_gauge 1.;
        true
      end
      else begin
        kill_slot t slot;
        go (k + 1)
      end
    end
  in
  let ok = go 1 in
  if not ok then
    Printf.eprintf
      "faerie: cluster: shard %d failed to start after %d attempts; serving \
       degraded\n\
       %!"
      slot.sid spawn_attempts;
  ok

let restart_slot t slot ~attempt =
  kill_slot t slot;
  t.restarts <- t.restarts + 1;
  slot.restarts <- slot.restarts + 1;
  Metrics.incr m_shard_restarts;
  Printf.eprintf "faerie: cluster: shard %d down, restarting\n%!" slot.sid;
  (* Same capped full-jitter schedule the in-process supervisor uses for
     worker respawns, keyed off the shard id so concurrent shard deaths
     do not thundering-herd their restarts. *)
  let delay =
    Supervisor.backoff_delay_ms t.config.retry ~doc_id:(1_000_003 + slot.sid)
      ~attempt:(max 1 attempt)
  in
  if delay > 0 then Unix.sleepf (float_of_int delay /. 1000.);
  start_slot t slot

let create ?(config = default_config) ~sim ~q load =
  if config.shards <= 0 then
    invalid_arg "Cluster.create: shards must be positive";
  let entities = Array.of_list (load ()) in
  let dir, own_dir =
    match config.snapshot_dir with
    | Some d ->
        if not (Sys.file_exists d) then Unix.mkdir d 0o755;
        (d, false)
    | None ->
        let d = Filename.temp_file "faerie-cluster" ".shards" in
        Sys.remove d;
        Unix.mkdir d 0o700;
        (d, true)
  in
  let plan =
    Shard_plan.write_snapshots ~dir ~gen:0 ~sim ~q ~shards:config.shards
      entities
  in
  let sink =
    Option.map Supervisor.Quarantine.open_sink config.pool.Supervisor.quarantine
  in
  let slots =
    Array.map
      (fun (sp : Shard_plan.shard_snapshot) ->
        {
          sid = sp.Shard_plan.shard;
          up_gauge =
            Metrics.indexed_gauge ~help:"shard process liveness (1 = up)"
              ~agg:`Max ~label:"shard" "shard_up" sp.Shard_plan.shard;
          pid = -1;
          wfd = Unix.stdin;
          rd = Frame.reader Unix.stdin;
          range = sp.Shard_plan.range;
          snapshot = sp.Shard_plan.path;
          up = false;
          restarts = 0;
          offset_ns = 0L;
          bye = None;
          addmap = Hashtbl.create 16;
          journal = [];
        })
      plan
  in
  let by_raw = Hashtbl.create (max 16 (Array.length entities)) in
  Array.iteri (fun i raw -> Hashtbl.replace by_raw raw i) entities;
  let t =
    {
      config;
      sim;
      q;
      load;
      dir;
      own_dir;
      sink;
      slots;
      generation = 0;
      restarts = 0;
      timeouts = 0;
      partials = 0;
      qpairs = 0;
      closed = false;
      ents = Dynarray.of_array entities;
      by_raw;
      dead_ids = Hashtbl.create 16;
      base_top = Array.length entities;
      pending_muts = 0;
      last_compact_ns = Trace.now_ns ();
    }
  in
  Metrics.set_max g_cluster_shards (float_of_int config.shards);
  Array.iter
    (fun slot ->
      if not (start_slot t slot) then begin
        Array.iter (kill_slot t) t.slots;
        failwith (Printf.sprintf "Cluster.create: shard %d failed to start" slot.sid)
      end)
    t.slots;
  t

(* ---- submit: fan out, supervise, merge ---- *)

type shard_state =
  | Waiting of { attempt : int; deadline : int64 option }
  | Settled of Parallel.outcome  (* entity ids already remapped to global *)
  | Lost of Outcome.error

let shard_down_error sid =
  Outcome.Worker_crash
    {
      Outcome.exn_name = "Shard_down";
      message = Printf.sprintf "shard %d is not running" sid;
      backtrace = "";
    }

let shard_exit_error sid =
  Outcome.Worker_crash
    {
      Outcome.exn_name = "Shard_exit";
      message = Printf.sprintf "shard %d process died mid-request" sid;
      backtrace = "";
    }

let shard_timeout_error sid ms =
  Outcome.Worker_crash
    {
      Outcome.exn_name = "Shard_timeout";
      message = Printf.sprintf "shard %d missed its %d ms deadline" sid ms;
      backtrace = "";
    }

let submit t ?id ?timeout_ms ?stages_out ~doc text =
  if t.closed then invalid_arg "Cluster.submit: cluster is shut down";
  let run_fanout () =
  let n = Array.length t.slots in
  let states = Array.make n (Lost (shard_down_error 0)) in
  (* Request-scoped trace context shipped on every doc frame: the trace id
     is the arrival ordinal shifted off 0 (= untraced), the depth is where
     a child of the enclosing cluster_doc span sits. [req_t0] floors the
     grafted shard subtrees so residual clock skew cannot make them start
     before the request span that contains them. When tracing is off this
     is [None] and doc frames are byte-identical to the untraced protocol.
     Armed head sampling narrows tracing further to the sampled ordinals —
     the decision is pure in (seed, ordinal), so shard count cannot change
     which documents get traced. *)
  let trace_ctx =
    if
      Trace.enabled ()
      && ((not (Sampling.armed ())) || Sampling.decide doc)
    then Some (doc + 1, Trace.current_depth ())
    else None
  in
  (* Per-stage wall breakdown across the fan-out: shards run concurrently,
     so element-wise max is the critical-path view — the stage time the
     slowest shard spent, which is what a slow merged request inherits. *)
  let stage_acc : (string * float) list ref = ref [] in
  let note_stages stages =
    List.iter
      (fun (name, v) ->
        stage_acc :=
          match List.assoc_opt name !stage_acc with
          | Some v0 when v0 >= v -> !stage_acc
          | Some _ ->
              (name, v) :: List.remove_assoc name !stage_acc
          | None -> !stage_acc @ [ (name, v) ])
      stages
  in
  let req_t0 = if trace_ctx <> None then Some (Trace.now_ns ()) else None in
  let fresh_deadline () =
    Option.map (fun ms -> deadline_in_ms ms) t.config.shard_timeout_ms
  in
  let send_doc slot ~attempt =
    match
      Frame.write slot.wfd
        (Shard.msg_to_string
           (Shard.Doc { doc; attempt; timeout_ms; text; trace = trace_ctx }))
    with
    | () -> true
    | exception (Unix.Unix_error _ | Sys_error _) -> false
  in
  let request_budget =
    {
      t.config.budget with
      Budget.timeout_ms =
        (match timeout_ms with
        | Some _ as o -> o
        | None -> t.config.budget.Budget.timeout_ms);
    }
  in
  let quarantine_pair slot ~attempts err =
    match t.sink with
    | None -> err
    | Some sink ->
        Supervisor.Quarantine.append sink
          {
            (* The salted attempt-0 context key, so a replay probing the
               shard_frame site under this very id re-fires the recorded
               fault schedule. *)
            Supervisor.Quarantine.doc_id =
              Supervisor.shard_fault_key ~doc_id:doc ~shard:slot.sid ~attempt:0;
            id;
            shard = Some slot.sid;
            attempts;
            error = Outcome.error_to_string err;
            sim = t.sim;
            q = t.q;
            pruning = t.config.pruning;
            budget = request_budget;
            fault = Fault.current ();
            gen = t.generation;
            text;
          };
        t.qpairs <- t.qpairs + 1;
        Metrics.incr m_quarantined_pairs;
        Outcome.Quarantined { attempts; last = err }
  in
  (* A shard failed to answer (death, timeout, torn frame): restart it and
     either retry the document against the replacement or write the
     (doc, shard) pair off to the dead-letter file. *)
  let fail_slot i err =
    let slot = t.slots.(i) in
    match states.(i) with
    | Settled _ | Lost _ -> ()
    | Waiting { attempt; _ } ->
        let alive = restart_slot t slot ~attempt:(attempt + 1) in
        if
          alive
          && attempt < t.config.retry.retries
          && send_doc slot ~attempt:(attempt + 1)
        then
          states.(i) <- Waiting { attempt = attempt + 1; deadline = fresh_deadline () }
        else
          states.(i) <- Lost (quarantine_pair slot ~attempts:(attempt + 1) err)
  in
  (* Pull every complete frame currently buffered/readable on a shard's
     pipe; a short deadline bounds the wait for the tail of a frame whose
     header already arrived. *)
  let drain_slot i slot =
    match Frame.read ~deadline_ns:(deadline_in_ms 50) slot.rd with
    | `Timeout -> ()
    | `Eof -> fail_slot i (shard_exit_error slot.sid)
    | `Corrupt msg ->
        fail_slot i
          (Outcome.Worker_crash
             {
               Outcome.exn_name = "Shard_corrupt_stream";
               message = msg;
               backtrace = "";
             })
    | `Frame p -> (
        match Shard.reply_of_string p with
        | Ok (Shard.Result { doc = d; gen = _; outcome; spans; stages })
          when d = doc -> (
            match states.(i) with
            | Waiting _ ->
                Trace.graft ~offset_ns:slot.offset_ns ?lo_ns:req_t0 spans;
                note_stages stages;
                (* Shard-local entity ids below the range width are
                   snapshot entities (offset remap, as ever); ids past it
                   are Delta-added and translate through the journal's
                   local->global add map. *)
                let remap ms =
                  if Hashtbl.length slot.addmap = 0 then
                    Shard_plan.remap_matches ~range:slot.range ms
                  else
                    let w = Shard_plan.width slot.range in
                    List.map
                      (fun (m : Types.char_match) ->
                        let local = m.Types.c_entity in
                        let global =
                          if local < w then local + slot.range.Shard_plan.lo
                          else
                            match Hashtbl.find_opt slot.addmap local with
                            | Some g -> g
                            | None -> local
                        in
                        { m with Types.c_entity = global })
                      ms
                in
                let out =
                  match outcome with
                  | Outcome.Ok ms -> Outcome.Ok (remap ms)
                  | Outcome.Degraded (ms, why) ->
                      Outcome.Degraded (remap ms, why)
                  | Outcome.Failed _ as f -> f
                in
                states.(i) <- Settled out
            | Settled _ | Lost _ -> ())
        | Ok (Shard.Refused { error }) ->
            fail_slot i
              (Outcome.Worker_crash
                 {
                   Outcome.exn_name = "Shard_refused";
                   message = error;
                   backtrace = "";
                 })
        | Ok _ -> ()  (* stray handshake frame: ignore, deadline will cover *)
        | Error e ->
            fail_slot i
              (Outcome.Worker_crash
                 {
                   Outcome.exn_name = "Shard_bad_frame";
                   message = Serve_proto.parse_error_to_string e;
                   backtrace = "";
                 }))
  in
  Array.iteri
    (fun i slot ->
      if not slot.up then states.(i) <- Lost (shard_down_error slot.sid)
      else if send_doc slot ~attempt:0 then
        states.(i) <- Waiting { attempt = 0; deadline = fresh_deadline () }
      else begin
        states.(i) <- Waiting { attempt = 0; deadline = None };
        fail_slot i (shard_exit_error slot.sid)
      end)
    t.slots;
  let waiting_idxs () =
    let acc = ref [] in
    Array.iteri
      (fun i st -> match st with Waiting _ -> acc := i :: !acc | _ -> ())
      states;
    List.rev !acc
  in
  let rec pump () =
    match waiting_idxs () with
    | [] -> ()
    | waiting ->
        let now = Trace.now_ns () in
        let expired =
          List.filter
            (fun i ->
              match states.(i) with
              | Waiting { deadline = Some d; _ } -> d <= now
              | _ -> false)
            waiting
        in
        if expired <> [] then begin
          List.iter
            (fun i ->
              t.timeouts <- t.timeouts + 1;
              Metrics.incr m_shard_timeouts;
              fail_slot i
                (shard_timeout_error t.slots.(i).sid
                   (Option.value t.config.shard_timeout_ms ~default:0)))
            expired;
          pump ()
        end
        else begin
          let fds = List.map (fun i -> Frame.reader_fd t.slots.(i).rd) waiting in
          let timeout =
            List.fold_left
              (fun acc i ->
                match states.(i) with
                | Waiting { deadline = Some d; _ } ->
                    let s = Int64.to_float (Int64.sub d now) /. 1e9 in
                    if acc < 0. then s else Float.min acc s
                | _ -> acc)
              (-1.) waiting
          in
          match Unix.select fds [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
          | [], _, _ -> pump ()
          | readable, _, _ ->
              List.iter
                (fun i ->
                  let slot = t.slots.(i) in
                  match states.(i) with
                  | Waiting _ when List.memq (Frame.reader_fd slot.rd) readable
                    ->
                      drain_slot i slot
                  | _ -> ())
                waiting;
              pump ()
        end
  in
  pump ();
  (match stages_out with Some r -> r := !stage_acc | None -> ());
  (* Merge in shard order: concatenate usable match sets (entity ranges are
     disjoint, so no dedup is needed), sort by span for a deterministic,
     shard-count-independent ordering, and descend the degradation ladder:
     all usable -> Ok / first per-shard degradation; any shard missing ->
     Shard_partial; nothing usable -> the lowest shard's error. *)
  let usable = ref [] in
  let first_deg = ref None in
  let missing = ref [] in
  let errors = ref [] in
  Array.iteri
    (fun i st ->
      match st with
      | Settled (Outcome.Ok ms) -> usable := ms :: !usable
      | Settled (Outcome.Degraded (ms, why)) ->
          usable := ms :: !usable;
          if !first_deg = None then first_deg := Some why
      | Settled (Outcome.Failed e) | Lost e ->
          missing := i :: !missing;
          errors := e :: !errors
      | Waiting _ -> assert false)
    states;
  if !usable = [] then
    Outcome.Failed (match List.rev !errors with e :: _ -> e | [] -> assert false)
  else begin
    let ms = List.sort Types.compare_span (List.concat (List.rev !usable)) in
    match List.rev !missing with
    | [] -> (
        match !first_deg with
        | Some why -> Outcome.Degraded (ms, why)
        | None -> Outcome.Ok ms)
    | missing ->
        t.partials <- t.partials + 1;
        Metrics.incr m_docs_partial;
        Outcome.Degraded (ms, Outcome.Shard_partial { n_shards = n; missing })
  end
  in
  Trace.with_span "cluster_doc"
    ~attrs:[ ("doc", string_of_int doc) ]
    run_fanout

(* ---- two-phase snapshot swap (reload & compaction) ---- *)

(* Rebuild the coordinator's dynamic-dictionary bookkeeping around a fresh
   entity array: the snapshot generation just adopted IS those entities,
   so journals, add maps and tombstones all reset. Runs at the commit
   point, before the Commit fan-out, so a shard dying during the fan-out
   restarts from the new snapshot with an empty journal. *)
let reset_dyn t entities =
  t.ents <- Dynarray.of_array entities;
  Hashtbl.reset t.by_raw;
  Array.iteri (fun i raw -> Hashtbl.replace t.by_raw raw i) entities;
  Hashtbl.reset t.dead_ids;
  t.base_top <- Array.length entities;
  t.pending_muts <- 0;
  t.last_compact_ns <- Trace.now_ns ();
  Array.iter
    (fun slot ->
      Hashtbl.reset slot.addmap;
      slot.journal <- [])
    t.slots

(* Drive the two-phase swap to a snapshot generation built from
   [entities]. [before_commit] runs after every shard has prepared and
   before the cluster adopts the new generation — it is compaction's
   compact_commit crash site; an injected fault there takes the abort
   path, exactly like a prepare failure: the old generation keeps
   serving and journaled mutations survive for replay. *)
let two_phase t ~entities ~before_commit =
  let gen' = t.generation + 1 in
  match
    Shard_plan.write_snapshots ~dir:t.dir ~gen:gen' ~sim:t.sim ~q:t.q
      ~shards:(Array.length t.slots) entities
  with
  | exception e -> Error ("snapshot build failed: " ^ Printexc.to_string e)
  | plan ->
      let n = Array.length t.slots in
      let cleanup_gen gen =
        Array.iter
          (fun slot ->
            try Sys.remove (Shard_plan.snapshot_path ~dir:t.dir ~gen ~shard:slot.sid)
            with Sys_error _ -> ())
          t.slots
      in
      (* Phase 1: every live shard loads the new snapshot and holds it
         pending. Any refusal/death aborts the whole generation. *)
      let prepared = Array.make n false in
      let prep_failed = ref [] in
      Array.iteri
        (fun i slot ->
          if slot.up then begin
            match
              Frame.write slot.wfd
                (Shard.msg_to_string
                   (Shard.Prepare
                      { gen = gen'; path = plan.(i).Shard_plan.path }))
            with
            | () -> ()
            | exception (Unix.Unix_error _ | Sys_error _) ->
                prep_failed := (i, "shard died before prepare") :: !prep_failed
          end)
        t.slots;
      Array.iteri
        (fun i slot ->
          if slot.up && not (List.mem_assoc i !prep_failed) then
            match
              await_handshake slot
                ~deadline:(deadline_in_ms handshake_timeout_ms)
            with
            | `Reply (Shard.Prepared { gen }) when gen = gen' ->
                prepared.(i) <- true
            | `Reply (Shard.Prepare_failed { error; _ }) ->
                prep_failed := (i, error) :: !prep_failed
            | `Reply _ ->
                prep_failed := (i, "unexpected prepare reply") :: !prep_failed
            | `Dead ->
                prep_failed := (i, "shard died during prepare") :: !prep_failed)
        t.slots;
      (* Abort: shards that prepared drop the pending snapshot; shards
         that died restart on the OLD generation (journal replay restores
         any pending mutations into the replacement process). *)
      let abort err =
        Array.iteri
          (fun i slot ->
            if prepared.(i) && slot.up then begin
              (try
                 Frame.write slot.wfd
                   (Shard.msg_to_string (Shard.Abort { gen = gen' }))
               with Unix.Unix_error _ | Sys_error _ -> ());
              match
                await_handshake slot
                  ~deadline:(deadline_in_ms handshake_timeout_ms)
              with
              | `Reply (Shard.Aborted _) -> ()
              | `Reply _ | `Dead -> ignore (restart_slot t slot ~attempt:1)
            end)
          t.slots;
        Array.iter
          (fun slot ->
            if slot.up = false then ignore (restart_slot t slot ~attempt:1))
          t.slots;
        cleanup_gen gen';
        Error err
      in
      if !prep_failed <> [] then
        let i, msg = List.hd (List.rev !prep_failed) in
        abort (Printf.sprintf "prepare failed on shard %d: %s" i msg)
      else begin
        match before_commit gen' with
        | exception Fault.Injected site ->
            abort (Printf.sprintf "injected fault at %s" site)
        | () ->
            (* Commit point: from here the cluster IS generation [gen'] —
               slots record the new snapshot/range first, so a shard dying
               anywhere in the commit fan-out restarts from the NEW files. *)
            t.generation <- gen';
            Array.iteri
              (fun i slot ->
                slot.range <- plan.(i).Shard_plan.range;
                slot.snapshot <- plan.(i).Shard_plan.path)
              t.slots;
            reset_dyn t entities;
            Array.iteri
              (fun _i slot ->
                if slot.up then begin
                  match
                    Frame.write slot.wfd
                      (Shard.msg_to_string (Shard.Commit { gen = gen' }))
                  with
                  | () -> (
                      match
                        await_handshake slot
                          ~deadline:(deadline_in_ms handshake_timeout_ms)
                      with
                      | `Reply (Shard.Committed { gen }) when gen = gen' -> ()
                      | `Reply _ | `Dead ->
                          ignore (restart_slot t slot ~attempt:1))
                  | exception (Unix.Unix_error _ | Sys_error _) ->
                      ignore (restart_slot t slot ~attempt:1)
                end
                else
                  (* A previously lost shard gets revived on the new
                     generation — the swap is also the recovery path. *)
                  ignore (restart_slot t slot ~attempt:1))
              t.slots;
            cleanup_gen (gen' - 1);
            Ok gen'
      end

let reload t =
  if t.closed then invalid_arg "Cluster.reload: cluster is shut down";
  match Array.of_list (t.load ()) with
  | exception e -> Error ("reload: " ^ Printexc.to_string e)
  | entities -> (
      match two_phase t ~entities ~before_commit:(fun _ -> ()) with
      | Ok _ as ok -> ok
      | Error e -> Error ("reload: " ^ e))

(* ---- online mutation & compaction ---- *)

let owner_of t g = Shard_plan.owner_dyn (Array.map (fun s -> s.range) t.slots) g

(* Journal first, then route. A slot that is down (or dies while we talk
   to it) still journals the mutation: journal replay applies it when the
   slot revives, so routing failures degrade durability to "applies on
   restart", never to "lost". *)
let route_mutation t slot msg entry =
  slot.journal <- entry :: slot.journal;
  t.pending_muts <- t.pending_muts + 1;
  if slot.up then
    match Frame.write slot.wfd (Shard.msg_to_string msg) with
    | exception (Unix.Unix_error _ | Sys_error _) ->
        ignore (restart_slot t slot ~attempt:1)
    | () -> (
        match
          await_handshake slot ~deadline:(deadline_in_ms handshake_timeout_ms)
        with
        | `Reply (Shard.Mutated { entity; applied; _ }) -> (
            match entry with
            | J_add { global; _ } when applied ->
                Hashtbl.replace slot.addmap entity global
            | _ -> ())
        | `Reply _ | `Dead -> ignore (restart_slot t slot ~attempt:1))

let dict_add t raw =
  if t.closed then invalid_arg "Cluster.dict_add: cluster is shut down";
  match Hashtbl.find_opt t.by_raw raw with
  | Some g -> `Exists g
  | None ->
      let g = Dynarray.length t.ents in
      Dynarray.push t.ents raw;
      Hashtbl.replace t.by_raw raw g;
      let slot = t.slots.(owner_of t g) in
      route_mutation t slot (Shard.Dict_add { raw }) (J_add { raw; global = g });
      `Added g

let dict_remove t raw =
  if t.closed then invalid_arg "Cluster.dict_remove: cluster is shut down";
  match Hashtbl.find_opt t.by_raw raw with
  | None -> `Absent
  | Some g ->
      Hashtbl.remove t.by_raw raw;
      Hashtbl.replace t.dead_ids g ();
      let slot = t.slots.(owner_of t g) in
      route_mutation t slot (Shard.Dict_remove { raw }) (J_remove raw);
      `Removed g

let delta_entities t = t.pending_muts
let live_count t = Dynarray.length t.ents - Hashtbl.length t.dead_ids

let entity_raw t g =
  if g < 0 || g >= Dynarray.length t.ents || Hashtbl.mem t.dead_ids g then None
  else Some (Dynarray.get t.ents g)

let live_entities t =
  let acc = ref [] in
  Dynarray.iteri
    (fun i raw -> if not (Hashtbl.mem t.dead_ids i) then acc := raw :: !acc)
    t.ents;
  Array.of_list (List.rev !acc)

let compact t =
  if t.closed then invalid_arg "Cluster.compact: cluster is shut down";
  let folded = t.pending_muts in
  let entities = live_entities t in
  match
    (* Context = the generation being built, so a schedule can target one
       specific compaction. compact_save models dying while building the
       new snapshots (nothing changed yet); compact_commit models dying
       after prepare, on the brink of adoption (two_phase aborts). *)
    Fault.with_context (t.generation + 1) (fun () ->
        Fault.site "compact_save";
        two_phase t ~entities ~before_commit:(fun _gen ->
            Fault.site "compact_commit"))
  with
  | exception Fault.Injected site ->
      Error (Printf.sprintf "injected fault at %s" site)
  | Error _ as e -> e
  | Ok gen ->
      Metrics.incr m_compactions;
      Ok (gen, folded)

(* ---- shutdown / stats ---- *)

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun slot ->
        if slot.up then begin
          (try Frame.write slot.wfd (Shard.msg_to_string Shard.Shutdown)
           with Unix.Unix_error _ | Sys_error _ -> ());
          let deadline = deadline_in_ms handshake_timeout_ms in
          let rec drain () =
            match Frame.read ~deadline_ns:deadline slot.rd with
            | `Frame p -> (
                match Shard.reply_of_string p with
                | Ok (Shard.Bye { restarts; quarantined }) ->
                    slot.bye <- Some (restarts, quarantined)
                | Ok _ -> drain ()
                | Error _ -> ())
            | `Eof | `Timeout | `Corrupt _ -> ()
          in
          drain ();
          kill_slot t slot
        end)
      t.slots;
    if t.own_dir then begin
      Array.iter
        (fun slot -> try Sys.remove slot.snapshot with Sys_error _ -> ())
        t.slots;
      try Unix.rmdir t.dir with Unix.Unix_error _ -> ()
    end;
    match t.sink with
    | Some sink -> Supervisor.Quarantine.close_sink sink
    | None -> ()
  end

let totals t =
  let worker_restarts, shard_quarantined =
    Array.fold_left
      (fun (r, q) slot ->
        match slot.bye with Some (br, bq) -> (r + br, q + bq) | None -> (r, q))
      (0, 0) t.slots
  in
  {
    shard_restarts = t.restarts;
    shard_timeouts = t.timeouts;
    docs_partial = t.partials;
    quarantined_pairs = t.qpairs;
    worker_restarts;
    shard_quarantined;
  }

(* Pull every live shard's metrics snapshot and merge it with the
   coordinator's own registry. One shared absolute deadline bounds the
   whole fan-out ([--shard-timeout-ms], falling back to the handshake
   timeout), so a wedged shard costs at most one deadline, not one per
   shard. A shard that dies mid-stats (EOF — e.g. an injected shard_stats
   fault) is restarted and reported as [None]; a shard that merely times
   out is reported [None] without a restart (it may still be answering a
   long document). Partial results are the contract: the merge flags
   missing shards, it never hangs and never fails the op. *)
let stats t =
  if t.closed then invalid_arg "Cluster.stats: cluster is shut down";
  let deadline =
    deadline_in_ms
      (Option.value t.config.shard_timeout_ms ~default:handshake_timeout_ms)
  in
  let sent =
    Array.map
      (fun slot ->
        slot.up
        &&
        match Frame.write slot.wfd (Shard.msg_to_string Shard.Stats_req) with
        | () -> true
        | exception (Unix.Unix_error _ | Sys_error _) ->
            ignore (restart_slot t slot ~attempt:1);
            false)
      t.slots
  in
  let per_shard =
    Array.to_list
      (Array.mapi
         (fun i slot ->
           if not sent.(i) then (slot.sid, None)
           else
             let rec await () =
               match Frame.read ~deadline_ns:deadline slot.rd with
               | `Frame p -> (
                   match Shard.reply_of_string p with
                   | Ok (Shard.Stats_reply { shard = _; snapshot }) ->
                       (slot.sid, Some snapshot)
                   | Ok _ -> await ()  (* stray frame: keep waiting *)
                   | Error _ -> (slot.sid, None))
               | `Timeout -> (slot.sid, None)
               | `Eof | `Corrupt _ ->
                   ignore (restart_slot t slot ~attempt:1);
                   (slot.sid, None)
             in
             await ())
         t.slots)
  in
  let merged =
    Metrics.merge_snapshots
      (Metrics.snapshot () :: List.filter_map snd per_shard)
  in
  (merged, per_shard)

let health t =
  let shards =
    Array.to_list
      (Array.map
         (fun slot ->
           {
             Serve_proto.h_shard = slot.sid;
             h_up = slot.up;
             h_gen = t.generation;
             h_restarts = slot.restarts;
             (* The coordinator keeps at most one document in flight per
                shard, so the shard-side pool queue is empty whenever we
                can be asked — report the coordinator-known 0 rather than
                paying a frame round-trip. *)
             h_queue_depth = 0;
             (* Journal length, not shard-side Delta.pending: the journal
                is the authoritative record of what this shard's overlay
                holds (or will hold after replay if it is mid-restart). *)
             h_delta = List.length slot.journal;
             h_compact_age_s =
               Some
                 (Int64.to_float (Int64.sub (Trace.now_ns ()) t.last_compact_ns)
                 /. 1e9);
           })
         t.slots)
  in
  let status =
    if List.for_all (fun h -> h.Serve_proto.h_up) shards then "ok"
    else "degraded"
  in
  (status, shards)

let run_batch ?(config = default_config) ~sim ~q ~entities docs =
  let t = create ~config ~sim ~q (fun () -> entities) in
  let out =
    Fun.protect
      ~finally:(fun () -> shutdown t)
      (fun () -> Array.mapi (fun i doc -> submit t ~doc:i doc) docs)
  in
  (out, Outcome.summarize out, totals t)
