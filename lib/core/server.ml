module Budget = Faerie_util.Budget
module Fault = Faerie_util.Fault
module Json = Faerie_util.Json
module Wal = Faerie_util.Wal
module Ix = Faerie_index
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Prof = Faerie_obs.Prof
module Sampling = Faerie_obs.Sampling
module Slowlog = Faerie_obs.Slowlog
module Slo = Faerie_obs.Slo
open Backend

(* Registered when serving starts rather than at module initialisation,
   so a single process lists them after every module's own metrics. *)
let serve_metrics =
  lazy
    ( Metrics.counter ~help:"successful hot index reloads in serve mode"
        "index_reloads",
      Metrics.gauge ~help:"current index snapshot generation in serve mode"
        ~agg:`Max "index_generation" )

let note_generation g =
  Metrics.set (snd (Lazy.force serve_metrics)) (float_of_int g)

let source_entities (c : config) =
  match (c.index, c.dict) with
  | Some path, _ ->
      Array.to_list
        (Array.map
           (fun e -> e.Ix.Entity.raw)
           (Ix.Dictionary.entities (fst (Ix.Codec.load path))))
  | None, Some path -> Problem.read_entities path
  | None, None -> invalid_arg "Server: a dictionary or an index is required"

let source_index (c : config) =
  Problem.index (Problem.load ~sim:c.sim ~q:c.q ~dict:c.dict ~index:c.index)

(* ---- backends ---- *)

module Local = struct
  type t = {
    c : config;
    live : Live_dict.t;
    pool : Supervisor.t;
    mutable last_compact : float;
  }

  let local_metrics = true

  let create (c : config) ~replay =
    let live = Live_dict.create ~replay ~sim:c.sim (source_index c) in
    let pool =
      Supervisor.create ~config:c.pool (fun () -> Live_dict.extractor live)
    in
    { c; live; pool; last_compact = Unix.gettimeofday () }

  let submit t ~doc ~id ~budget ~trace text k =
    let opts = { Extractor.default_opts with pruning = t.c.pruning; budget } in
    let trace = if trace = 0 then None else Some (trace, 0) in
    ignore
      (Supervisor.submit t.pool ?id ~opts ~doc_id:doc ?trace text
         ~on_done:(fun outcome ->
           (* On the worker domain that extracted, so the sealed stage
              scratch is this document's. *)
           let timing =
             if not (Slowlog.armed ()) then None
             else
               Option.map
                 (fun d -> (d.Slowlog.wall_ns, Slowlog.stages d))
                 (Slowlog.last_doc ())
           in
           k { outcome; timing })
        : [ `Queued | `Shed ])

  let apply t op = Live_dict.apply t.live op
  let generation t = Live_dict.generation t.live
  let live_count t = Live_dict.live_count t.live

  (* Quarantine records name the generation that served the document. *)
  let adopt t next =
    Live_dict.adopt t.live next;
    Supervisor.note_generation t.pool (generation t)

  let reload t ~reapply =
    let gen = generation t + 1 in
    match Live_dict.create ~gen ~replay:reapply ~sim:t.c.sim (source_index t.c) with
    | next ->
        adopt t next;
        Ok gen
    | exception e ->
        Error
          (match e with
          | Ix.Codec.Corrupt m -> "corrupt index: " ^ m
          | Ix.Codec.Truncated { at; len } ->
              Printf.sprintf "truncated index (byte %d of %d)" at len
          | Wal.Corrupt m -> "corrupt wal: " ^ m
          | Fault.Injected site -> "injected fault at " ^ site
          | Sys_error m -> m
          | e -> raise e)

  let compact t ~index ~wal:_ =
    match index with
    | None -> Error "compact requires --index (a durable snapshot to fold into)"
    | Some path -> (
        let folded = Live_dict.pending t.live in
        let gen = generation t + 1 in
        match
          Fault.with_context gen (fun () ->
              (* compact_save: dies before anything durable changed. *)
              Fault.site "compact_save";
              let p = Live_dict.fold t.live in
              Ix.Codec.save (Problem.dictionary p) (Problem.index p) path;
              (* compact_commit: the folded snapshot is on disk but the
                 WAL still holds its mutations — a crash here replays
                 them idempotently against it on restart. *)
              Fault.site "compact_commit";
              p)
        with
        | exception Fault.Injected site ->
            Error (Printf.sprintf "injected fault at %s" site)
        | exception Sys_error m -> Error m
        | p ->
            adopt t (Live_dict.of_problem ~gen p);
            t.last_compact <- Unix.gettimeofday ();
            Ok (gen, folded))

  let stats t =
    Supervisor.note_queue_depth t.pool;
    Prof.note_rss ();
    (Metrics.snapshot (), [])

  let health t =
    let shard =
      {
        Serve_proto.h_shard = 0;
        h_up = true;
        h_gen = generation t;
        h_restarts = Supervisor.worker_restarts t.pool;
        h_queue_depth = Supervisor.queue_depth t.pool;
        h_delta = Live_dict.pending t.live;
        h_compact_age_s = Some (Unix.gettimeofday () -. t.last_compact);
      }
    in
    let max_rss_bytes = float_of_int (Prof.max_rss_bytes ()) in
    { status = "ok"; max_rss_bytes; shards = [ shard ] }

  let close t =
    Supervisor.shutdown t.pool;
    Prof.note_rss ();
    Metrics.snapshot ()

  let summary_counts _ = []
end

module Sharded = struct
  type t = {
    c : config;
    cluster : Cluster.t;
    mutable merged_rss : float;
        (* peak RSS from the last merged pull: health stays frame-free (a
           stats round-trip would shift the shard_stats fault ordinals),
           so it reports this cached cluster-wide max *)
  }

  let local_metrics = false

  let apply t = function
    | Wal.Add raw -> (
        match Cluster.dict_add t.cluster raw with
        | `Added id -> (true, id)
        | `Exists id -> (false, id))
    | Wal.Remove raw -> (
        match Cluster.dict_remove t.cluster raw with
        | `Removed id -> (true, id)
        | `Absent -> (false, -1))

  let create (c : config) ~replay =
    let config =
      {
        Cluster.shards = c.shards;
        pool = c.pool;
        retry = c.pool.Supervisor.retry;
        shard_timeout_ms = c.shard_timeout_ms;
        pruning = c.pruning;
        budget =
          {
            Budget.spec_unlimited with
            timeout_ms = c.timeout_ms;
            max_bytes = c.max_doc_bytes;
          };
        snapshot_dir = None;
        slow_stages = c.slow_ms <> None || c.slowlog <> None;
      }
    in
    let cluster =
      Cluster.create ~config ~sim:c.sim ~q:c.q (fun () -> source_entities c)
    in
    let t = { c; cluster; merged_rss = 0. } in
    (* A recovered mutation routes to its owning shard like a live one. *)
    replay (fun op -> ignore (apply t op));
    t

  let submit t ~doc ~id ~budget ~trace:_ text k =
    let stages = ref [] in
    let t0 = Trace.now_ns () in
    let outcome =
      Cluster.submit t.cluster ?id ?timeout_ms:budget.Budget.timeout_ms
        ~stages_out:stages ~doc text
    in
    let wall_ns = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) in
    k { outcome; timing = Some (wall_ns, !stages) }

  let generation t = Cluster.generation t.cluster
  let live_count t = Cluster.live_count t.cluster

  let reload t ~reapply =
    let r = Cluster.reload t.cluster in
    (* Re-routed after the commit: pure no-ops for any mutation the
       reloaded source already absorbed. *)
    if Result.is_ok r then begin
      try reapply (fun op -> ignore (apply t op))
      with e ->
        Printf.eprintf "faerie: serve: wal re-apply after reload failed: %s\n%!"
          (Printexc.to_string e)
    end;
    r

  let compact t ~index ~wal =
    if wal && index = None then
      Error
        "compact with --wal requires --index (a durable snapshot to fold into)"
    else
      let r = Cluster.compact t.cluster in
      (* The cluster's own snapshots live in its (possibly temp) shard dir;
         fold the result into the durable --index source too. *)
      (match (r, index) with
      | Ok _, Some path ->
          let live =
            List.init (live_count t) (fun i ->
                Option.get (Cluster.entity_raw t.cluster i))
          in
          let p = Problem.create ~sim:t.c.sim ~q:t.c.q live in
          Ix.Codec.save (Problem.dictionary p) (Problem.index p) path
      | _ -> ());
      r

  let stats t =
    Prof.note_rss ();
    let merged, per_shard = Cluster.stats t.cluster in
    t.merged_rss <-
      Float.max t.merged_rss (Metrics.gauge_value merged "max_rss_bytes");
    let missing = List.filter (fun (_, s) -> s = None) per_shard in
    (merged, List.map fst missing)

  let health t =
    let status, shards = Cluster.health t.cluster in
    let rss = float_of_int (Prof.max_rss_bytes ()) in
    { status; max_rss_bytes = Float.max rss t.merged_rss; shards }

  (* The merged snapshot must be pulled while the shards still live. *)
  let close t =
    Prof.note_rss ();
    let final, _ = Cluster.stats t.cluster in
    Cluster.shutdown t.cluster;
    final

  let summary_counts t =
    let tot = Cluster.totals t.cluster in
    [ ("shards", t.c.shards); ("shard_restarts", tot.shard_restarts);
      ("shard_timeouts", tot.shard_timeouts); ("docs_partial", tot.docs_partial);
      ("quarantined_pairs", tot.quarantined_pairs) ]
end

(* ---- the request loop ---- *)

(* OCaml channels surface EINTR/EPIPE as [Sys_error] with strerror text. *)
let mentions msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let is_eintr msg = mentions msg "Interrupted"
let is_epipe msg = mentions msg "Broken pipe"

let run (type b) (module B : S with type t = b) (b : b) (c : config)
    ?(input = Unix.stdin) ?(output = stdout) ?(log = stderr)
    ?(started = Unix.gettimeofday ()) () =
  let wal = Option.map Wal.openfile c.wal in
  let logf fmt = Printf.fprintf log ("faerie: serve: " ^^ fmt ^^ "\n%!") in
  let slo_tracker = Slo.tracker () in
  let last_slo = ref None in
  let assess_slo snap =
    if not (Slo.is_empty c.slo) then
      last_slo := Some (Slo.assess slo_tracker c.slo snap)
  in
  let slo_json () = Option.map Slo.to_json !last_slo in
  (* Responses may print from worker domains. Once the peer is gone
     (EPIPE) they are dropped and the loop winds down; the summary still
     reaches [log]. *)
  let client_gone = Atomic.make false in
  let out_lock = Mutex.create () in
  let rec flush_retry () =
    try flush output with Sys_error m when is_eintr m -> flush_retry ()
  in
  let print_line s =
    Mutex.lock out_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        if not (Atomic.get client_gone) then
          try
            output_string output s;
            output_char output '\n';
            flush_retry ()
          with
          | Sys_error m when is_epipe m -> Atomic.set client_gone true
          | Sys_error m when is_eintr m -> (
              try flush_retry ()
              with Sys_error m when is_epipe m -> Atomic.set client_gone true))
  in
  let pull_stats () =
    let snap, missing = B.stats b in
    assess_slo snap;
    Serve_proto.stats_response_json ~missing ~format:c.metrics_format snap
  in
  (* SIGALRM only flags a tick; it is emitted from here, because a
     cluster pull does frame round-trips, nothing a handler may do. *)
  let maybe_tick () =
    if Atomic.exchange c.tick_requested false then begin
      Printf.fprintf log "%s\n%!" (pull_stats ());
      Option.iter (fun a -> logf "%s" (Slo.render a)) !last_slo
    end
  in
  (* Requests come off the raw fd, not a buffered channel: channel reads
     restart on EINTR, which would sit on a pending tick until the next
     request. Parking in select lets ticks surface while idle. *)
  let lines = Queue.create () in
  let acc = Buffer.create 4096 in
  let rbuf = Bytes.create 65536 in
  let eof = ref false in
  let rec read_line () =
    if not (Queue.is_empty lines) then Some (Queue.take lines)
    else if !eof then None
    else begin
      maybe_tick ();
      match Unix.select [ input ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
      | _ -> (
          match Unix.read input rbuf 0 (Bytes.length rbuf) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
          | 0 ->
              eof := true;
              if Buffer.length acc = 0 then None
              else begin
                let l = Buffer.contents acc in
                Buffer.clear acc;
                Some l
              end
          | n ->
              for i = 0 to n - 1 do
                match Bytes.get rbuf i with
                | '\n' ->
                    Queue.add (Buffer.contents acc) lines;
                    Buffer.clear acc
                | ch -> Buffer.add_char acc ch
              done;
              read_line ())
    end
  in
  (* ---- reload: on SIGHUP or a changed --index mtime; a failed reload
     keeps the current generation serving ---- *)
  let mtime () =
    Option.bind c.index (fun p ->
        try Some (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> None)
  in
  let last_mtime = ref (mtime ()) in
  let mtime_changed () =
    match (!last_mtime, mtime ()) with
    | Some old, (Some m as now) when m <> old ->
        last_mtime := now;
        true
    | _ -> false
  in
  (* A reloaded source predates the WAL's pending mutations; re-applied,
     a reload never rolls back accepted writes (and after a crash between
     a compaction's save and its WAL truncate, the replay is a no-op). *)
  let reapply apply =
    Option.iter
      (fun w ->
        let n, _ = Wal.replay (Wal.path w) apply in
        if n > 0 then logf "re-applied %d wal mutation(s)" n)
      wal
  in
  let reloads = ref 0 in
  let maybe_reload () =
    if Atomic.exchange c.reload_requested false || mtime_changed () then
      match B.reload b ~reapply with
      | Ok g ->
          incr reloads;
          Metrics.incr (fst (Lazy.force serve_metrics));
          note_generation g;
          logf "reloaded index (generation %d)" g
      | Error msg ->
          logf "reload failed, keeping generation %d: %s" (B.generation b) msg
  in
  (* ---- admin ops. Durability order: WAL append (fsynced) first, then
     the backend. A failed append — an injected wal_append fault included
     — refuses the mutation, so everything acknowledged is on disk before
     any request can see it. ---- *)
  let mutate opname op =
    match Option.iter (fun w -> Wal.append w op) wal with
    | exception Fault.Injected site ->
        Serve_proto.admin_error_json ~op:opname
          (Printf.sprintf "injected fault at %s: mutation not applied" site)
    | exception e ->
        Serve_proto.admin_error_json ~op:opname
          ("wal append failed: " ^ Printexc.to_string e)
    | () ->
        let applied, entity = B.apply b op in
        Serve_proto.dict_response_json ~op:opname ~applied ~entity
          ~entities:(B.live_count b) ~gen:(B.generation b)
  in
  let compact () =
    match B.compact b ~index:c.index ~wal:(wal <> None) with
    | Error msg -> Serve_proto.admin_error_json ~op:"compact" msg
    | Ok (g, folded) ->
        Option.iter Wal.truncate wal;
        (* our own save touched --index: no reload for that *)
        ignore (mtime_changed () : bool);
        note_generation g;
        Serve_proto.compact_response_json ~gen:g ~folded
          ~entities:(B.live_count b)
  in
  let health () =
    (* A stats ticker owns the SLO windows (a frequent probe would shrink
       them to slivers), so health then reports the cached assessment;
       without one, a backend whose metrics are all local assesses here. *)
    if B.local_metrics && c.stats_interval_s <= 0 then
      assess_slo (Metrics.snapshot ());
    let h = B.health b in
    let status =
      match !last_slo with Some a when a.Slo.burning -> "slo_burn" | _ -> h.status
    in
    Serve_proto.health_response_json
      ~uptime_s:(Unix.gettimeofday () -. started)
      ~max_rss_bytes:h.max_rss_bytes ?slo:(slo_json ()) ~status h.shards
  in
  let admin = function
    | Error e ->
        Json.to_string
          (Json.Obj
             [
               ("v", Json.int Serve_proto.version);
               ("outcome", Json.Str "error");
               ("error", Json.Str (Serve_proto.parse_error_to_string e));
             ])
    | Ok Serve_proto.Stats -> pull_stats ()
    | Ok Serve_proto.Health -> health ()
    | Ok Serve_proto.Slowlog_dump ->
        Serve_proto.slowlog_response_json ~total:(Slowlog.total ())
          (List.map snd (Slowlog.drain ()))
    | Ok (Serve_proto.Dict_add raw) -> mutate "dict_add" (Wal.Add raw)
    | Ok (Serve_proto.Dict_remove raw) -> mutate "dict_remove" (Wal.Remove raw)
    | Ok Serve_proto.Compact -> compact ()
  in
  (* ---- documents ---- *)
  let tally = Outcome.tally () in
  let tally_lock = Mutex.create () in
  let submit o (req : Serve_proto.request) =
    let budget =
      {
        Budget.spec_unlimited with
        timeout_ms = (if req.timeout_ms = None then c.timeout_ms else req.timeout_ms);
        max_bytes = c.max_doc_bytes;
      }
    in
    let id = req.id and text = req.text in
    let trace = if Sampling.decide o then Sampling.trace_id o else 0 in
    B.submit b ~doc:o ~id ~budget ~trace text (fun { outcome; timing } ->
        Mutex.protect tally_lock (fun () -> Outcome.tally_add tally outcome);
        (* Collected now, span memory stays bounded whether or not the
           request makes the slowlog ring. *)
        if trace <> 0 then ignore (Trace.drain_trace trace : Trace.span list);
        let gen = B.generation b in
        (match timing with
        | Some (wall_ns, stages_ns) when Slowlog.should_capture ~wall_ns ->
            (* A self-contained repro: the full spec being served. *)
            Slowlog.capture ~wall_ns
              (Serve_proto.Slowrec.to_json
                 {
                   doc_id = o;
                   id;
                   trace;
                   gen;
                   wall_ms = wall_ns /. 1e6;
                   outcome = Outcome.class_name (Outcome.classify outcome);
                   stages_ms = List.map (fun (n, v) -> (n, v /. 1e6)) stages_ns;
                   sim = c.sim;
                   q = c.q;
                   pruning = c.pruning;
                   budget;
                   fault = Fault.current ();
                   text;
                 })
        | _ -> ());
        print_line (Serve_proto.response_json ~ord:o ~id ~gen outcome))
  in
  (* ---- the loop. Admin ops take no doc ordinal, so a probed server
     keeps the exact fault schedule of an unprobed one. ---- *)
  note_generation (B.generation b);
  let ord = ref 0 in
  let continue = ref true in
  while !continue do
    match read_line () with
    | None -> continue := false
    | Some line -> (
        maybe_reload ();
        maybe_tick ();
        if Atomic.get client_gone then continue := false
        else if String.trim line <> "" then
          match Serve_proto.parse_admin line with
          | Some op -> print_line (admin op)
          | None -> (
              let o = !ord in
              incr ord;
              match Serve_proto.parse_request ~ord:o line with
              | Error e -> print_line (Serve_proto.error_json ~ord:o e)
              | Ok req -> submit o req))
  done;
  let final = B.close b in
  Slowlog.disarm ();
  assess_slo final;
  Option.iter Wal.close wal;
  Printf.fprintf log "%s\n%!"
    (Serve_proto.summary_json ~metrics:final ?slo:(slo_json ())
       ~counts:(B.summary_counts b) ~reloads:!reloads
       (Outcome.tally_summary tally))

(* Startup WAL recovery: replay the whole-record prefix into the backend
   and repair a torn tail (expected crash debris). A corrupt log raises:
   dropping records would lose acknowledged mutations. *)
let recover (c : config) apply =
  Option.iter
    (fun path ->
      let n, tail = Wal.replay path apply in
      (match tail with
      | Wal.Clean -> ()
      | Wal.Torn { at; len } ->
          Printf.eprintf
            "faerie: serve: wal torn tail repaired (whole records up to byte \
             %d of %d)\n\
             %!"
            at len;
          Wal.repair path tail);
      if n > 0 then
        Printf.eprintf "faerie: serve: replayed %d wal mutation(s)\n%!" n)
    c.wal

let main (c : config) =
  let started = Unix.gettimeofday () in
  ignore (Lazy.force serve_metrics);
  Option.iter Fault.configure c.inject;
  (* Diagnostics are armed before any fork, so shards inherit the memoized
     git revision and the sampling flags. Disarmed, each costs one atomic
     load per request. *)
  Faerie_obs.Build_info.note ();
  if c.trace_sample_rate > 0. then begin
    Sampling.configure ~seed:c.trace_seed c.trace_sample_rate;
    (* keep only the spans of sampled requests *)
    Trace.enable ();
    Trace.set_selective true
  end;
  if c.slow_ms <> None || c.slowlog <> None then
    Slowlog.configure ~capacity:c.slowlog_k ?slow_ms:c.slow_ms ?path:c.slowlog ();
  if c.shards > 0 then
    run (module Sharded) (Sharded.create c ~replay:(recover c)) c ~started ()
  else run (module Local) (Local.create c ~replay:(recover c)) c ~started ();
  0
