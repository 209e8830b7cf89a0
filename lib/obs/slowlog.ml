(* Slow-query capture for the serve path.

   Two cooperating pieces:

   - Per-domain stage scratch: when armed, [Prof.with_stage] brackets
     feed per-stage wall time into a domain-local accumulator
     ([doc_begin] / [note_stage] / [doc_end]), so the stage breakdown of
     a slow request can be retro-materialized even when the request was
     not sampled for tracing. Disarmed cost is one atomic load per
     bracket, mirroring Prof.

   - A bounded capture ring: the K slowest requests seen so far, plus
     write-through of every request over the slow threshold. Records are
     JSON values built by the serve layer (which owns the schema — this
     module must not depend on lib/core); over-threshold records are
     appended to the sink immediately as whole {!Append_log} lines, as
     Supervisor.Quarantine does, and the below-threshold top-K remainder
     is flushed at disarm. *)

let n_stages = 4

let stage_names = [| "tokenize"; "heap_merge"; "windows"; "verify" |]

let stage_name i = stage_names.(i)

type config = {
  slow_ns : float;  (* write-through threshold; infinity = ring-only *)
  capacity : int;
  sink : Append_log.t option;
  stages_only : bool;  (* shard mode: stage scratch armed, no ring *)
}

let state : config option Atomic.t = Atomic.make None

(* Armed-path probe (the Prof.captures pattern): zero while disarmed. *)
let n_captures = Atomic.make 0

let captures () = Atomic.get n_captures

let armed () = Atomic.get state <> None

let stage_armed = armed

(* ---- per-domain stage scratch ---- *)

type scratch = {
  st : float array;
  mutable s_wall_ns : float;
  mutable s_trace : int;
  mutable live : bool;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st = Array.make n_stages 0.; s_wall_ns = 0.; s_trace = 0; live = false })

let stage_clock () = Int64.to_float (Trace.now_ns ())

let doc_begin () =
  Atomic.incr n_captures;
  let s = Domain.DLS.get scratch_key in
  Array.fill s.st 0 n_stages 0.;
  s.s_wall_ns <- 0.;
  s.s_trace <- 0;
  s.live <- false

let note_stage i dt =
  let s = Domain.DLS.get scratch_key in
  if i >= 0 && i < n_stages then s.st.(i) <- s.st.(i) +. dt

let doc_end ~wall_ns ~trace =
  let s = Domain.DLS.get scratch_key in
  s.s_wall_ns <- wall_ns;
  s.s_trace <- trace;
  s.live <- true

type doc = { wall_ns : float; trace : int; stages_ns : float array }

let stages d = List.init n_stages (fun i -> (stage_names.(i), d.stages_ns.(i)))

let last_doc () =
  let s = Domain.DLS.get scratch_key in
  if not s.live then None
  else Some { wall_ns = s.s_wall_ns; trace = s.s_trace; stages_ns = Array.copy s.st }

(* ---- capture ring ---- *)

type entry = { e_wall_ns : float; e_record : Json.t; mutable e_written : bool }

let ring_lock = Mutex.create ()

let ring : entry list ref = ref [] (* unordered; capacity is small *)

let n_total = ref 0

let write sink record = Append_log.append sink (Json.to_lines [ record ])

let ring_min () =
  List.fold_left (fun acc e -> Float.min acc e.e_wall_ns) Float.infinity !ring

let should_capture ~wall_ns =
  match Atomic.get state with
  | None -> false
  | Some c ->
      (not c.stages_only)
      && (wall_ns >= c.slow_ns
         || begin
              Mutex.lock ring_lock;
              let keep =
                List.length !ring < c.capacity || wall_ns > ring_min ()
              in
              Mutex.unlock ring_lock;
              keep
            end)

let capture ~wall_ns record =
  match Atomic.get state with
  | None -> ()
  | Some c when c.stages_only -> ()
  | Some c ->
      Atomic.incr n_captures;
      let written =
        if wall_ns >= c.slow_ns then (
          (match c.sink with Some s -> write s record | None -> ());
          true)
        else false
      in
      Mutex.lock ring_lock;
      incr n_total;
      let e = { e_wall_ns = wall_ns; e_record = record; e_written = written } in
      let r = e :: !ring in
      let r =
        if List.length r <= c.capacity then r
        else
          (* evict the least-slow entry; ties broken by list order *)
          let m =
            List.fold_left (fun acc x -> Float.min acc x.e_wall_ns) infinity r
          in
          let dropped = ref false in
          List.filter
            (fun x ->
              if (not !dropped) && x.e_wall_ns = m then (
                dropped := true;
                false)
              else true)
            r
      in
      ring := r;
      Mutex.unlock ring_lock

let drain () =
  Mutex.lock ring_lock;
  let l = List.map (fun e -> (e.e_wall_ns, e.e_record)) !ring in
  Mutex.unlock ring_lock;
  List.sort (fun (a, _) (b, _) -> Float.compare b a) l

let total () =
  Mutex.lock ring_lock;
  let n = !n_total in
  Mutex.unlock ring_lock;
  n

(* Flush ring entries that never crossed the write-through threshold
   (the below-threshold tail of the top-K), slowest first. *)
let flush () =
  match Atomic.get state with
  | Some { sink = Some s; _ } ->
      Mutex.lock ring_lock;
      let pending =
        List.filter (fun e -> not e.e_written) !ring
        |> List.sort (fun a b -> Float.compare b.e_wall_ns a.e_wall_ns)
      in
      List.iter (fun e -> e.e_written <- true) pending;
      Mutex.unlock ring_lock;
      List.iter (fun e -> write s e.e_record) pending
  | _ -> ()

let disarm () =
  flush ();
  (match Atomic.get state with
  | Some { sink = Some s; _ } -> Append_log.close s
  | _ -> ());
  Atomic.set state None;
  Mutex.lock ring_lock;
  ring := [];
  n_total := 0;
  Mutex.unlock ring_lock

let configure ?(capacity = 8) ?slow_ms ?path () =
  (match Atomic.get state with Some _ -> disarm () | None -> ());
  let sink =
    match path with
    | None -> None
    | Some p -> Some (Append_log.openfile p)
  in
  let slow_ns =
    match slow_ms with Some ms -> ms *. 1e6 | None -> Float.infinity
  in
  Atomic.set state
    (Some { slow_ns; capacity = max 1 capacity; sink; stages_only = false })

let arm_stages () =
  (* A forked shard inherits the coordinator's armed state — ring
     contents and sink fd included. Drop both WITHOUT flushing (a flush
     here would duplicate the coordinator's records into the shared
     O_APPEND file) and close only our copy of the descriptor. *)
  (match Atomic.get state with
  | Some { sink = Some s; _ } -> Append_log.close s
  | _ -> ());
  Mutex.lock ring_lock;
  ring := [];
  n_total := 0;
  Mutex.unlock ring_lock;
  Atomic.set state
    (Some { slow_ns = Float.infinity; capacity = 1; sink = None; stages_only = true })

let slow_ns () =
  match Atomic.get state with Some c -> c.slow_ns | None -> Float.infinity
