(* Drives one `faerie serve` child over a single stdin/stdout pipe pair
   from one thread: a select loop with non-blocking writes, so the client
   never deadlocks against a server that is itself blocked writing
   responses. Requests follow the workload's stream; every request and
   its response line are kept for checking after the server exits. *)

module W = Workload
module Dynarray = Faerie_util.Dynarray

let now = Faerie_obs.Trace.now_ns

let ns_of_s s = Int64.of_float (s *. 1e9)

(* ---- the child process ---- *)

type server = {
  pid : int;
  req : Unix.file_descr;
  resp : Unix.file_descr;
  mutable obuf : Bytes.t;  (** bytes queued for the server's stdin *)
  mutable olen : int;
  mutable ooff : int;
  rbuf : Bytes.t;
  acc : Buffer.t;  (** partial response line *)
  lines : (string * int64) Queue.t;  (** whole lines with receipt time *)
  mutable eof : bool;
  spawned : int64;
}

let live_pids = ref []

let spawn ~exe ~args ~stderr_path =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let spawned = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) req_r resp_w err
  in
  live_pids := pid :: !live_pids;
  List.iter Unix.close [ req_r; resp_w; err ];
  Unix.set_nonblock req_w;
  {
    pid;
    req = req_w;
    resp = resp_r;
    obuf = Bytes.create 65536;
    olen = 0;
    ooff = 0;
    rbuf = Bytes.create 65536;
    acc = Buffer.create 4096;
    lines = Queue.create ();
    eof = false;
    spawned;
  }

let flush_some s =
  if s.olen > s.ooff then
    match Unix.write s.req s.obuf s.ooff (s.olen - s.ooff) with
    | k ->
        s.ooff <- s.ooff + k;
        if s.ooff = s.olen then begin
          s.ooff <- 0;
          s.olen <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        failwith "faerie serve closed its stdin (server died?)"

let send s line =
  let n = String.length line + 1 in
  if s.olen + n > Bytes.length s.obuf then begin
    let live = s.olen - s.ooff in
    let b = Bytes.create (max (Bytes.length s.obuf) (2 * (live + n))) in
    Bytes.blit s.obuf s.ooff b 0 live;
    s.obuf <- b;
    s.olen <- live;
    s.ooff <- 0
  end;
  Bytes.blit_string line 0 s.obuf s.olen (n - 1);
  Bytes.set s.obuf (s.olen + n - 1) '\n';
  s.olen <- s.olen + n;
  flush_some s

(* Wait up to [timeout] seconds for readability (and writability while
   bytes are queued); queue every whole response line that arrived. *)
let poll s ~timeout =
  let wr = if s.olen > s.ooff then [ s.req ] else [] in
  match Unix.select [ s.resp ] wr [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
      if w <> [] then flush_some s;
      if r <> [] && not s.eof then begin
        match Unix.read s.resp s.rbuf 0 (Bytes.length s.rbuf) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
        | 0 -> s.eof <- true
        | n ->
            let t = now () in
            for i = 0 to n - 1 do
              match Bytes.get s.rbuf i with
              | '\n' ->
                  Queue.add (Buffer.contents s.acc, t) s.lines;
                  Buffer.clear s.acc
              | c -> Buffer.add_char s.acc c
            done
      end

(* Close stdin, read to end of output, reap. A server that does not exit
   within [grace] seconds is killed. *)
let stop ?(grace = 60.) s =
  (try Unix.close s.req with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  while (not s.eof) && Unix.gettimeofday () < deadline do
    s.olen <- 0;
    s.ooff <- 0;
    poll s ~timeout:0.5;
    Queue.clear s.lines
  done;
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] s.pid)
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let st = reap () in
  (try Unix.close s.resp with Unix.Unix_error _ -> ());
  live_pids := List.filter (( <> ) s.pid) !live_pids;
  st

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

(* ---- requests ---- *)

type kind =
  | KDoc of int  (** distinct document index *)
  | KMut of int  (** mutation slot *)
  | KProbe of int  (** probe after mutation slot *)

type req = {
  kind : kind;
  ord : int;  (** the server's document ordinal; -1 for mutations *)
  phase : string;
  sched : int64;  (** when it was due (send time if unscheduled) *)
  sent : int64;
  mutable recv : int64;  (** 0 until answered *)
  mutable resp : string;
}

type conn = {
  srv : server;
  inp : W.inputs;
  muts : W.mutations;
  mutable next_item : int;
  mutable next_ord : int;
  reqs : req Dynarray.t;  (** every request, in send order *)
  by_ord : (int, req) Hashtbl.t;  (** outstanding documents and probes *)
  acks : req Queue.t;  (** mutations awaiting their acknowledgement *)
  probes : int Queue.t;  (** slots whose probe is due *)
  add_probed : (int, unit) Hashtbl.t;  (** entities whose add probe came back *)
  admin : (string * int64) Queue.t;  (** replies to final admin ops *)
  mutable outstanding : int;
  mutable last_recv : int64;
}

let conn srv inp =
  {
    srv;
    inp;
    muts = W.mutations ~seed:inp.W.seed;
    next_item = 0;
    next_ord = 0;
    reqs = Dynarray.create ();
    by_ord = Hashtbl.create 4096;
    acks = Queue.create ();
    probes = Queue.create ();
    add_probed = Hashtbl.create 64;
    admin = Queue.create ();
    outstanding = 0;
    last_recv = 0L;
  }

let doc_prefix = "{\"doc\":"

let is_doc_line l =
  String.length l > 7 && String.sub l 0 7 = doc_prefix

let ord_of_line l =
  let i = ref 7 and v = ref 0 in
  while !i < String.length l && l.[!i] >= '0' && l.[!i] <= '9' do
    v := (!v * 10) + Char.code l.[!i] - 48;
    incr i
  done;
  !v

let handle (s : conn) (line, t) =
  s.last_recv <- t;
  if is_doc_line line then begin
    let ord = ord_of_line line in
    match Hashtbl.find_opt s.by_ord ord with
    | None -> failwith ("unexpected response: " ^ line)
    | Some r ->
        Hashtbl.remove s.by_ord ord;
        r.recv <- t;
        r.resp <- line;
        s.outstanding <- s.outstanding - 1;
        match r.kind with
        | KProbe k -> (
            match W.op s.muts k with
            | W.Add x -> Hashtbl.replace s.add_probed x ()
            | W.Remove _ -> ())
        | KDoc _ | KMut _ -> ()
  end
  else
    match Queue.take_opt s.acks with
    | Some r ->
        r.recv <- t;
        r.resp <- line;
        s.outstanding <- s.outstanding - 1;
        (match r.kind with KMut k -> Queue.add k s.probes | _ -> ())
    | None -> Queue.add (line, t) s.admin

let pump (s : conn) ~timeout =
  poll s.srv ~timeout;
  while not (Queue.is_empty s.srv.lines) do
    handle s (Queue.take s.srv.lines)
  done;
  if s.srv.eof && (s.outstanding > 0 || Queue.is_empty s.admin) then
    failwith "faerie serve exited mid-run"

(* [sent] is read before the write: a write that wakes the server can
   cost the client its CPU until the server yields, and that wait is
   service time, not generator lateness. *)
let record s kind ~ord ~phase ~sched ~sent =
  let r = { kind; ord; phase; sched; sent; recv = 0L; resp = "" } in
  Dynarray.push s.reqs r;
  s.outstanding <- s.outstanding + 1;
  r

let send_doc s kind line ~phase ~sched =
  let ord = s.next_ord in
  s.next_ord <- ord + 1;
  let sent = now () in
  send s.srv line;
  let r = record s kind ~ord ~phase ~sched ~sent in
  Hashtbl.replace s.by_ord ord r

let send_probe s ~phase =
  let k = Queue.take s.probes in
  let line = W.text_line (W.probe_text s.muts (W.op s.muts k)) in
  send_doc s (KProbe k) line ~phase ~sched:(now ())

(* Send the next stream line, unless it is the removal of an entity whose
   add probe has not come back yet: that line waits, so the probe's
   answer cannot depend on pipelining. *)
let send_item s ~phase ~sched =
  let i = s.next_item in
  match W.item s.inp i with
  | W.Doc d ->
      s.next_item <- i + 1;
      send_doc s (KDoc d) s.inp.W.doc_lines.(d) ~phase ~sched;
      true
  | W.Mut k ->
      let o = W.op s.muts k in
      let held =
        match o with
        | W.Remove x -> not (Hashtbl.mem s.add_probed x)
        | W.Add _ -> false
      in
      if held then false
      else begin
        s.next_item <- i + 1;
        let sent = now () in
        send s.srv (W.op_line s.muts o);
        let r = record s (KMut k) ~ord:(-1) ~phase ~sched ~sent in
        Queue.add r s.acks;
        true
      end

let guard_ns = ns_of_s 120.

let drain s =
  let deadline = Int64.add (now ()) guard_ns in
  while s.outstanding > 0 || not (Queue.is_empty s.probes) do
    while not (Queue.is_empty s.probes) do
      send_probe s ~phase:"drain"
    done;
    if now () > deadline then failwith "timed out draining responses";
    pump s ~timeout:0.05
  done

(* Closed loop: keep [window] requests outstanding until [seconds] pass. *)
let closed s ~window ~seconds ~phase =
  let t0 = now () in
  let until = Int64.add t0 (ns_of_s seconds) in
  let rec loop () =
    let t = now () in
    if t < until then begin
      let progress = ref true in
      while s.outstanding < window && !progress do
        if not (Queue.is_empty s.probes) then send_probe s ~phase
        else progress := send_item s ~phase ~sched:(now ())
      done;
      pump s ~timeout:(Int64.to_float (Int64.sub until t) /. 1e9);
      loop ()
    end
  in
  loop ();
  drain s;
  (t0, until)

(* Open loop: stream line j is due at t0 + j / rate; probes go out as soon
   as their mutation is acknowledged. *)
let paced s ~rate ~seconds ~phase =
  let t0 = now () in
  let until = Int64.add t0 (ns_of_s seconds) in
  let j = ref 0 in
  let due () = Int64.add t0 (ns_of_s (float_of_int !j /. rate)) in
  let rec loop () =
    let d = due () in
    if d < until then begin
      while not (Queue.is_empty s.probes) do
        send_probe s ~phase
      done;
      let t = now () in
      if t >= d then begin
        if send_item s ~phase ~sched:d then incr j
        else pump s ~timeout:0.001
      end
      else pump s ~timeout:(Int64.to_float (Int64.sub d t) /. 1e9);
      loop ()
    end
  in
  loop ();
  drain s;
  (t0, until)

(* One admin op after everything else has drained; returns its reply. *)
let admin s line =
  send s.srv line;
  let deadline = Int64.add (now ()) guard_ns in
  while Queue.is_empty s.admin do
    if now () > deadline then failwith ("timed out waiting for " ^ line);
    pump s ~timeout:0.05
  done;
  Queue.take s.admin

let health = {|{"op":"health"}|}

let stats = {|{"op":"stats"}|}

(* Spawn until the first health probe is answered. *)
let start ~exe ~args ~stderr_path inp =
  let srv = spawn ~exe ~args ~stderr_path in
  let s = conn srv inp in
  let _, t = admin s health in
  (s, Int64.to_float (Int64.sub t srv.spawned) /. 1e9)
