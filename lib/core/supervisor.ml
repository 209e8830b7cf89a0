module Budget = Faerie_util.Budget
module Fault = Faerie_util.Fault
module Json = Faerie_util.Json
module Xorshift = Faerie_util.Xorshift
module Sim = Faerie_sim.Sim
module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace

type outcome = Parallel.outcome

let m_worker_restarts =
  Metrics.counter ~help:"supervised worker domains respawned after a death"
    "worker_restarts"

let m_doc_retries =
  Metrics.counter ~help:"per-document retry attempts" "doc_retries"

let m_docs_quarantined =
  Metrics.counter ~help:"documents written to the quarantine dead-letter file"
    "docs_quarantined"

let m_docs_shed =
  Metrics.counter ~help:"documents refused by admission control" "docs_shed"

(* [`Max] agg: the depth is a pool-wide point-in-time value set by whichever
   domain observed it last — summing per-domain cells would double-count
   observations made from different domains. *)
let g_queue_depth =
  Metrics.gauge
    ~help:"documents waiting in the worker pool (admission + retry queues)"
    ~agg:`Max "pool_queue_depth"

(* splitmix64-style finalizer over an (a, b) pair, for re-keying fault
   contexts and seeding backoff jitter. Full-avalanche so that nearby
   (doc, attempt) pairs get unrelated schedules. *)
let mix_int a b =
  let h =
    let open Int64 in
    let h = add (of_int a) (mul 0x9e3779b97f4a7c15L (add (of_int b) 1L)) in
    let h = logxor h (shift_right_logical h 30) in
    let h = mul h 0xbf58476d1ce4e5b9L in
    logxor h (shift_right_logical h 27)
  in
  Int64.to_int h land max_int

(* Attempt 0 keys the fault context by the plain document id — identical to
   what {!Parallel} would use, so a supervised run and a batch run see the
   same fault schedule on first attempts. Re-attempts get a fresh key:
   deterministic, but independent of the first attempt's schedule (otherwise
   an injected fault would re-fire identically forever and retry would be
   pointless). *)
let fault_key ~doc_id ~attempt =
  if attempt = 0 then doc_id else mix_int doc_id attempt

(* Shard-salted variant for {!Cluster}: each shard of a fan-out must see an
   independent fault schedule for the same document (otherwise every shard
   of the cluster would die on exactly the same documents and a partial
   merge could never occur). The salt keeps attempt 0 deterministic and
   distinct per shard while still flowing through [fault_key]'s re-keying
   for retries. Masked to 53 bits: the attempt-0 key is stored as the
   [doc] of coordinator quarantine records, and the NDJSON codec carries
   numbers as IEEE doubles — anything wider would round-trip lossily and
   break replay. *)
let shard_fault_key ~doc_id ~shard ~attempt =
  fault_key ~doc_id:(mix_int doc_id (0x5d17e0 + shard) land ((1 lsl 53) - 1))
    ~attempt

type retry = {
  retries : int;
  backoff_ms : int;
  backoff_max_ms : int;
  seed : int;
}

let default_retry = { retries = 2; backoff_ms = 10; backoff_max_ms = 1000; seed = 0 }

let backoff_delay_ms retry ~doc_id ~attempt =
  if retry.backoff_ms <= 0 then 0
  else begin
    (* Exponential window with full jitter: uniform in [1, window] where
       window = backoff_ms * 2^(attempt-1), capped. The shift is clamped so
       a huge retry budget cannot overflow the window computation. *)
    let expo = retry.backoff_ms * (1 lsl min (max 0 (attempt - 1)) 20) in
    let window = max 1 (min (max 1 retry.backoff_max_ms) expo) in
    let rng = Xorshift.create (mix_int retry.seed (mix_int doc_id attempt)) in
    1 + Xorshift.int rng window
  end

type config = {
  domains : int;
  retry : retry;
  queue_capacity : int;
  quarantine : string option;
  shed : bool;
  shard : int option;
}

let default_config =
  {
    domains = max 1 (Domain.recommended_domain_count () - 1);
    retry = default_retry;
    queue_capacity = 64;
    quarantine = None;
    shed = false;
    shard = None;
  }

module Quarantine = struct
  type record = {
    doc_id : int;
    id : string option;
    shard : int option;
    attempts : int;
    error : string;
    sim : Sim.t;
    q : int;
    pruning : Types.pruning;
    budget : Budget.spec;
    fault : Fault.config option;
    gen : int;
        (* dictionary generation serving when the failure happened; replay
           refuses a mismatched generation (the text would extract against
           a different dictionary and not reproduce) *)
    text : string;
  }

  let to_json r =
    Json.to_string
      (Json.Obj
         ([
            ("doc", Json.int r.doc_id);
            ("id", match r.id with Some s -> Json.Str s | None -> Json.Null);
          ]
         @ (* only cluster shards stamp their id; single-pool records keep
              the pre-cluster shape byte-for-byte *)
         (match r.shard with Some s -> [ ("shard", Json.int s) ] | None -> [])
         @ [
           ("attempts", Json.int r.attempts);
           ("error", Json.Str r.error);
           ("sim", Json.Str (Sim.to_spec r.sim));
           ("q", Json.int r.q);
           ("pruning", Json.Str (Types.pruning_name r.pruning));
           ("budget", Budget.spec_to_json r.budget);
           ( "fault",
             Option.fold ~none:Json.Null ~some:Fault.config_to_json r.fault );
           ("text", Json.Str r.text);
           ("gen", Json.int r.gen);
         ]))

  let of_json line =
    match Json.of_string line with
    | Error e -> Error e
    | Ok j -> (
        let field name conv =
          match Option.bind (Json.member name j) conv with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "missing or bad field %S" name)
        in
        let ( let* ) = Result.bind in
        let* doc_id = field "doc" Json.to_int in
        let id =
          match Json.member "id" j with
          | Some (Json.Str s) -> Some s
          | _ -> None
        in
        let shard = Option.bind (Json.member "shard" j) Json.to_int in
        let* attempts = field "attempts" Json.to_int in
        let* error = field "error" Json.to_str in
        let* sim_spec = field "sim" Json.to_str in
        let* sim = Sim.of_spec sim_spec in
        let* q = field "q" Json.to_int in
        let* pruning_name = field "pruning" Json.to_str in
        let* pruning =
          match
            List.find_opt
              (fun p -> Types.pruning_name p = pruning_name)
              Types.all_prunings
          with
          | Some p -> Ok p
          | None -> Error (Printf.sprintf "unknown pruning %S" pruning_name)
        in
        let budget =
          Option.fold ~none:Budget.spec_unlimited ~some:Budget.spec_of_json
            (Json.member "budget" j)
        in
        let fault = Option.bind (Json.member "fault" j) Fault.config_of_json in
        let* text = field "text" Json.to_str in
        (* Records from before dynamic dictionaries carry no generation:
           they were written against the only generation there was, 0. *)
        let gen =
          match Option.bind (Json.member "gen" j) Json.to_int with
          | Some g -> g
          | None -> 0
        in
        Ok
          {
            doc_id; id; shard; attempts; error; sim; q; pruning; budget; fault;
            gen; text;
          })

  (* Dead-letter sink: the coordinator and N shard processes append to
     one file, each record one whole {!Faerie_obs.Append_log} line. *)
  type sink = Faerie_obs.Append_log.t

  let open_sink = Faerie_obs.Append_log.openfile

  let append sink r = Faerie_obs.Append_log.append sink (to_json r ^ "\n")

  let close_sink = Faerie_obs.Append_log.close
end

type job = {
  doc_id : int;
  id : string option;
  text : string;
  opts : Extractor.opts;
  mutable attempt : int;
  mutable sleep_ms : int;
      (* backoff carried over a death-requeue, slept by the next worker *)
  deadline_ns : int64 option;
  trace : (int * int) option;
      (* (trace id, absolute depth) the attempt spans record under *)
  on_done : outcome -> unit;
}

type t = {
  config : config;
  source : unit -> Extractor.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  idle : Condition.t;
  queue : job Queue.t;  (* bounded admission queue *)
  retry_q : job Queue.t;
      (* unbounded: death-requeues must never block the dying worker *)
  mutable pending : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  mutable restarts : int;
  quarantine_sink : Quarantine.sink option;
  generation : int Atomic.t;
      (* dictionary generation stamped into quarantine records; atomic
         because the owner bumps it on reload commits while worker domains
         read it when finalizing failures *)
}

let transient = function
  | Outcome.Injected_fault _ | Outcome.Worker_crash _ -> true
  | Outcome.Doc_too_large _ | Outcome.Budget_exhausted _
  | Outcome.Tokenize_error _ | Outcome.Corrupt_index _ | Outcome.Shed _
  | Outcome.Quarantined _ ->
      false

(* [on_done] runs outside the pool lock: it is caller code and may take
   arbitrary time; exceptions are swallowed (the outcome was delivered, and
   a callback bug must not kill a worker). *)
let complete t job out =
  (try job.on_done out with _ -> ());
  Mutex.lock t.lock;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.lock

let quarantine_write t record =
  match t.quarantine_sink with
  | None -> ()
  | Some sink -> Quarantine.append sink record

let finalize_failed t job err =
  if t.quarantine_sink <> None && transient err then begin
    let attempts = job.attempt + 1 in
    let p = Extractor.problem (t.source ()) in
    quarantine_write t
      {
        Quarantine.doc_id = job.doc_id;
        id = job.id;
        shard = t.config.shard;
        attempts;
        error = Outcome.error_to_string err;
        sim = Problem.sim p;
        q = Problem.q p;
        pruning = job.opts.Extractor.pruning;
        budget = job.opts.Extractor.budget;
        fault = Fault.current ();
        gen = Atomic.get t.generation;
        text = job.text;
      };
    Metrics.incr m_docs_quarantined;
    complete t job (Outcome.Failed (Outcome.Quarantined { attempts; last = err }))
  end
  else complete t job (Outcome.Failed err)

let sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.)

(* One extraction attempt plus inline retries of contained transient
   failures. Exceptions escaping this function are worker deaths: the
   "supervisor_worker" fault site sits deliberately OUTSIDE the
   {!Extractor.run} containment boundary, modeling a crash of the worker
   loop itself rather than of per-document processing. *)
let rec attempt_loop t job =
  let key = fault_key ~doc_id:job.doc_id ~attempt:job.attempt in
  Fault.with_context key (fun () -> Fault.site "supervisor_worker");
  let run_span () =
    Trace.with_span "doc_attempt"
      ~attrs:
        [
          ("doc", string_of_int job.doc_id);
          ("attempt", string_of_int job.attempt);
        ]
      (fun () ->
        Extractor.run
          ~opts:{ job.opts with Extractor.doc_id = key }
          (t.source ()) (`Text job.text))
  in
  let report =
    (* The worker domain records under the submitter's trace context, so a
       shard's attempt spans carry the coordinator's trace id and nest at
       the depth its request span dictates. *)
    match job.trace with
    | Some (tid, depth) -> Trace.with_context ~trace:tid ~depth run_span
    | None -> run_span ()
  in
  match Parallel.outcome_of_report report with
  | (Outcome.Ok _ | Outcome.Degraded _) as out -> complete t job out
  | Outcome.Failed err ->
      if transient err && job.attempt < t.config.retry.retries then begin
        job.attempt <- job.attempt + 1;
        Metrics.incr m_doc_retries;
        sleep_ms
          (backoff_delay_ms t.config.retry ~doc_id:job.doc_id
             ~attempt:job.attempt);
        attempt_loop t job
      end
      else finalize_failed t job err

let process_job t job =
  sleep_ms job.sleep_ms;
  job.sleep_ms <- 0;
  match job.deadline_ns with
  | Some d when t.config.shed && Trace.now_ns () > d ->
      Metrics.incr m_docs_shed;
      complete t job (Outcome.Failed (Outcome.Shed Outcome.Deadline_expired))
  | _ -> attempt_loop t job

(* Death-requeues bypass the bounded queue (a dying worker must never
   block on admission) and are preferred by [next_job] so a crashed-on
   document is not starved behind fresh arrivals. *)
let next_job t =
  Mutex.lock t.lock;
  let rec wait () =
    if not (Queue.is_empty t.retry_q) then Some (Queue.pop t.retry_q)
    else if not (Queue.is_empty t.queue) then begin
      let j = Queue.pop t.queue in
      Condition.signal t.not_full;
      Some j
    end
    else if t.closed then None
    else begin
      Condition.wait t.not_empty t.lock;
      wait ()
    end
  in
  let j = wait () in
  Mutex.unlock t.lock;
  j

let rec worker_main t =
  match next_job t with
  | None -> ()
  | Some job -> (
      match process_job t job with
      | () -> worker_main t
      | exception e -> on_worker_death t job e)

(* The dying worker requeues (or finalizes) the document it held, then
   spawns its own replacement and exits — every submitted document still
   reaches exactly one outcome. The replacement is registered in
   [t.workers] before this domain returns, so a concurrent [shutdown]'s
   join loop cannot miss it. *)
and on_worker_death t job e =
  let err =
    match e with
    | Fault.Injected site -> Outcome.Injected_fault site
    | e -> Outcome.Worker_crash (Outcome.exn_info_of e)
  in
  Metrics.incr m_worker_restarts;
  Mutex.lock t.lock;
  t.restarts <- t.restarts + 1;
  Mutex.unlock t.lock;
  if job.attempt < t.config.retry.retries then begin
    job.attempt <- job.attempt + 1;
    job.sleep_ms <-
      backoff_delay_ms t.config.retry ~doc_id:job.doc_id ~attempt:job.attempt;
    Metrics.incr m_doc_retries;
    Mutex.lock t.lock;
    Queue.push job t.retry_q;
    Condition.signal t.not_empty;
    Mutex.unlock t.lock
  end
  else finalize_failed t job err;
  Mutex.lock t.lock;
  let respawn = (not t.closed) || t.pending > 0 in
  if respawn then t.workers <- Domain.spawn (fun () -> worker_main t) :: t.workers;
  Mutex.unlock t.lock

let create ?(config = default_config) source =
  if config.domains < 0 then
    invalid_arg "Supervisor.create: negative domain count";
  if config.queue_capacity <= 0 then
    invalid_arg "Supervisor.create: queue_capacity must be positive";
  let quarantine_sink = Option.map Quarantine.open_sink config.quarantine in
  let t =
    {
      config;
      source;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      retry_q = Queue.create ();
      pending = 0;
      closed = false;
      workers = [];
      restarts = 0;
      quarantine_sink;
      generation = Atomic.make 0;
    }
  in
  Mutex.lock t.lock;
  for _ = 1 to config.domains do
    t.workers <- Domain.spawn (fun () -> worker_main t) :: t.workers
  done;
  Mutex.unlock t.lock;
  t

let note_generation t gen = Atomic.set t.generation gen

let submit t ?id ?opts ?deadline_ns ?trace ~doc_id text ~on_done =
  let opts = Option.value opts ~default:Extractor.default_opts in
  let deadline_ns =
    match deadline_ns with
    | Some _ as d -> d
    | None ->
        if t.config.shed then
          Budget.deadline_ns opts.Extractor.budget ~now_ns:(Trace.now_ns ())
        else None
  in
  let job =
    {
      doc_id; id; text; opts; attempt = 0; sleep_ms = 0; deadline_ns; trace;
      on_done;
    }
  in
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Supervisor.submit: pool is shut down"
  end;
  if t.config.shed && Queue.length t.queue >= t.config.queue_capacity then begin
    Mutex.unlock t.lock;
    Metrics.incr m_docs_shed;
    (try on_done (Outcome.Failed (Outcome.Shed Outcome.Queue_full))
     with _ -> ());
    `Shed
  end
  else begin
    while Queue.length t.queue >= t.config.queue_capacity && not t.closed do
      Condition.wait t.not_full t.lock
    done;
    if t.closed then begin
      Mutex.unlock t.lock;
      invalid_arg "Supervisor.submit: pool is shut down"
    end;
    t.pending <- t.pending + 1;
    Queue.push job t.queue;
    Condition.signal t.not_empty;
    Mutex.unlock t.lock;
    `Queued
  end

let drain t =
  Mutex.lock t.lock;
  while t.pending > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let shutdown ?drain:(do_drain = true) t =
  if do_drain then drain t;
  Mutex.lock t.lock;
  t.closed <- true;
  let orphans = ref [] in
  while not (Queue.is_empty t.retry_q) do
    orphans := Queue.pop t.retry_q :: !orphans
  done;
  while not (Queue.is_empty t.queue) do
    orphans := Queue.pop t.queue :: !orphans
  done;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.lock;
  List.iter
    (fun j ->
      Metrics.incr m_docs_shed;
      complete t j (Outcome.Failed (Outcome.Shed Outcome.Shutdown)))
    (List.rev !orphans);
  (* Join every worker, looping because a dying worker may register a
     replacement while we are joining its siblings. *)
  let rec join_all () =
    Mutex.lock t.lock;
    match t.workers with
    | [] -> Mutex.unlock t.lock
    | d :: rest ->
        t.workers <- rest;
        Mutex.unlock t.lock;
        Domain.join d;
        join_all ()
  in
  join_all ();
  match t.quarantine_sink with
  | Some sink -> Quarantine.close_sink sink
  | None -> ()

let worker_restarts t =
  Mutex.lock t.lock;
  let r = t.restarts in
  Mutex.unlock t.lock;
  r

let queue_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue + Queue.length t.retry_q in
  Mutex.unlock t.lock;
  n

let note_queue_depth t =
  Metrics.set g_queue_depth (float_of_int (queue_depth t))

let run_batch ?(config = default_config) ?opts problem docs =
  let config = { config with domains = max 1 config.domains } in
  let t0 = Trace.now_ns () in
  let ex = Extractor.of_problem problem in
  let n = Array.length docs in
  let out = Array.make n (Outcome.Failed (Outcome.Shed Outcome.Shutdown)) in
  let t = create ~config (fun () -> ex) in
  Fun.protect
    ~finally:(fun () -> shutdown ~drain:false t)
    (fun () ->
      Array.iteri
        (fun i doc ->
          ignore
            (submit t ?opts ~doc_id:i doc ~on_done:(fun o -> out.(i) <- o)))
        docs;
      drain t);
  let summary =
    Outcome.summarize ~elapsed_ns:(Int64.sub (Trace.now_ns ()) t0) out
  in
  (out, summary)
