type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  domain : int;
  trace : int;
  ok : bool;
  attrs : (string * string) list;
}

let recording = Atomic.make false

(* Selective mode (head sampling): record only spans tagged with a
   nonzero trace id, i.e. inside some [with_context]. Requests that were
   not sampled run with trace id 0 and leave nothing behind, so a serve
   process tracing 1% of requests does not accumulate spans for the
   other 99%. *)
let selective = Atomic.make false

let clock : (unit -> int64) option Atomic.t = Atomic.make None

let real_now () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let now_ns () =
  match Atomic.get clock with Some f -> f () | None -> real_now ()

let set_clock f = Atomic.set clock f

let enable () = Atomic.set recording true

let disable () = Atomic.set recording false

let enabled () = Atomic.get recording

let set_selective b = Atomic.set selective b

let is_selective () = Atomic.get selective

(* Per-domain recording state; registered in a global list under a mutex on
   first use so [drain] can reach every domain's buffer. [trace] tags every
   span recorded by this domain with a request-scoped trace id (0 = none)
   and [depth] doubles as the nesting base: {!with_context} sets both so a
   shard process records its subtree at the absolute depth the
   coordinator's request span would give it. *)
type buf = { mutable spans : span list; mutable depth : int; mutable trace : int }

let lock = Mutex.create ()

let bufs : buf list ref = ref []

let buf_slot : buf option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let my_buf () =
  let slot = Domain.DLS.get buf_slot in
  match !slot with
  | Some b -> b
  | None ->
      let b = { spans = []; depth = 0; trace = 0 } in
      Mutex.lock lock;
      bufs := b :: !bufs;
      Mutex.unlock lock;
      slot := Some b;
      b

let with_span ?(attrs = []) name f =
  if not (Atomic.get recording) then f ()
  else begin
    let b = my_buf () in
    if Atomic.get selective && b.trace = 0 then f ()
    else begin
    let depth = b.depth in
    b.depth <- depth + 1;
    let t0 = now_ns () in
    let close ok =
      let t1 = now_ns () in
      b.depth <- depth;
      b.spans <-
        {
          name;
          start_ns = t0;
          dur_ns = Int64.sub t1 t0;
          depth;
          domain = (Domain.self () :> int);
          trace = b.trace;
          ok;
          attrs;
        }
        :: b.spans
    in
    match f () with
    | v ->
        close true;
        v
    | exception e ->
        close false;
        raise e
    end
  end

let with_context ~trace ~depth f =
  if not (Atomic.get recording) then f ()
  else begin
    let b = my_buf () in
    let saved_depth = b.depth and saved_trace = b.trace in
    b.depth <- depth;
    b.trace <- trace;
    Fun.protect
      ~finally:(fun () ->
        b.depth <- saved_depth;
        b.trace <- saved_trace)
      f
  end

let current_depth () = if Atomic.get recording then (my_buf ()).depth else 0

let current_trace () = if Atomic.get recording then (my_buf ()).trace else 0

(* Adopt spans recorded by another process into this domain's buffer.
   [offset_ns] re-bases the foreign clock onto ours (measured against the
   peer's Ready timestamp); residual skew is then absorbed by two uniform
   shifts of the whole subtree. The adopted spans are completed work, so
   the subtree must not extend past the adoption instant ([now_ns ()] —
   an offset measured late pushes everything late, past the close of the
   enclosing request span); and [lo_ns], applied last because a child
   appearing to start before its enclosing request span is the worse
   breakage for flame reconstruction, keeps the earliest start at or
   after the request start. Both clamps hold together under monotonic
   clocks: the peer's work happened inside the [lo_ns, now] window, so
   the subtree extent fits it. Depths are absolute already (the peer
   recorded under {!with_context}); domains are remapped to the adopting
   domain so per-domain nesting reconstruction sees one coherent
   stream. *)
let graft ?(offset_ns = 0L) ?lo_ns spans =
  if Atomic.get recording && spans <> [] then begin
    let b = my_buf () in
    let shift =
      let rebased_max_end =
        List.fold_left
          (fun acc s ->
            Int64.max acc
              (Int64.add (Int64.add s.start_ns offset_ns) s.dur_ns))
          Int64.min_int spans
      in
      let now = now_ns () in
      let shift =
        if Int64.compare rebased_max_end now > 0 then
          Int64.sub offset_ns (Int64.sub rebased_max_end now)
        else offset_ns
      in
      let shifted_min =
        List.fold_left
          (fun acc s -> Int64.min acc (Int64.add s.start_ns shift))
          Int64.max_int spans
      in
      match lo_ns with
      | Some lo when Int64.compare shifted_min lo < 0 ->
          Int64.add shift (Int64.sub lo shifted_min)
      | _ -> shift
    in
    let dom = (Domain.self () :> int) in
    List.iter
      (fun s ->
        b.spans <-
          { s with start_ns = Int64.add s.start_ns shift; domain = dom }
          :: b.spans)
      spans
  end

let compare_span a b =
  let c = Int64.compare a.start_ns b.start_ns in
  if c <> 0 then c
  else
    let c = compare a.depth b.depth in
    if c <> 0 then c else compare a.name b.name

(* Remove and return only the spans of one trace, leaving every other
   buffered span in place. Unlike {!drain} this is safe while other
   requests are in flight on sibling domains: a sampled request's
   completion callback collects its own subtree without stealing spans
   that belong to a request still being assembled elsewhere. *)
let drain_trace tid =
  Mutex.lock lock;
  let mine = ref [] in
  List.iter
    (fun b ->
      let keep, take =
        List.partition (fun (s : span) -> s.trace <> tid) b.spans
      in
      b.spans <- keep;
      mine := take @ !mine)
    !bufs;
  Mutex.unlock lock;
  List.sort compare_span !mine

let drain () =
  Mutex.lock lock;
  let all =
    List.concat_map
      (fun b ->
        let s = b.spans in
        b.spans <- [];
        s)
      !bufs
  in
  Mutex.unlock lock;
  List.sort compare_span all

let reset () = ignore (drain ())

(* One span object, for the JSONL export and for shard frames alike.
   Nanosecond fields are exact integers: wall-clock values (~1.7e18) lie
   past 2^53, where a double would round them. *)
let span_to_json s =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("start_ns", Json.Int s.start_ns);
      ("dur_ns", Json.Int s.dur_ns);
      ("depth", Json.int s.depth);
      ("domain", Json.int s.domain);
      ("trace", Json.int s.trace);
      ("ok", Json.Bool s.ok);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.attrs));
    ]

let span_of_json j =
  let ( let* ) = Option.bind in
  let field name conv = Option.bind (Json.member name j) conv in
  let* name = field "name" Json.to_str in
  let* start_ns = field "start_ns" Json.to_int64 in
  let* dur_ns = field "dur_ns" Json.to_int64 in
  let* depth = field "depth" Json.to_int in
  let* domain = field "domain" Json.to_int in
  let* trace = field "trace" Json.to_int in
  let* ok = field "ok" Json.to_bool in
  let* attrs = field "attrs" (Json.fields_of Json.to_str) in
  Some { name; start_ns; dur_ns; depth; domain; trace; ok; attrs }

let to_jsonl spans = Json.to_lines (List.map span_to_json spans)
