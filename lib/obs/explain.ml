type reason =
  | Lazy_bound of { tl : int; count : int }
  | Bucket_pruned
  | Span_pruned
  | Shift_jumped of int

type event =
  | Doc of { doc_id : int }
  | Entity of { entity : int; e_len : int; n_positions : int }
  | Pruned of { entity : int; reason : reason }
  | Window of { entity : int; first : int; last : int }
  | Window_skip of { entity : int; reason : reason }
  | Candidate of {
      entity : int;
      start : int;
      len : int;
      count : int;
      t : int;
      survived : bool;
    }
  | Filter_done of { survivors : int }
  | Verifier of { choice : string }
  | Verify of { entity : int; start : int; len : int; matched : bool }
  | Selection of { total : int; kept : int }

type t = {
  mutable events : event list; (* newest first *)
  mutable n_events : int;
  mutable cur_entity : int; (* context for window-search hooks *)
}

let create () = { events = []; n_events = 0; cur_entity = -1 }

(* Fast global guard: number of sinks currently installed across all
   domains. Hot paths check this single flag before paying for the
   per-domain lookup or building an event payload. *)
let n_armed = Atomic.make 0

let armed () = Atomic.get n_armed > 0

let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get slot)

let with_sink sink f =
  let r = Domain.DLS.get slot in
  let saved = !r in
  r := Some sink;
  Atomic.incr n_armed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr n_armed;
      r := saved)
    f

let emit sink ev =
  sink.events <- ev :: sink.events;
  sink.n_events <- sink.n_events + 1

let record ev = match current () with None -> () | Some sink -> emit sink ev

let set_entity sink entity = sink.cur_entity <- entity

let skip reason =
  match current () with
  | None -> ()
  | Some sink -> emit sink (Window_skip { entity = sink.cur_entity; reason })

let events t = List.rev t.events

let length t = t.n_events

let clear t =
  t.events <- [];
  t.n_events <- 0;
  t.cur_entity <- -1

(* ---- summary ---- *)

type summary = {
  docs : int;
  entities_seen : int;
  pruned_lazy : int;
  buckets_pruned : int;
  windows : int;
  span_pruned : int;
  shift_jumped : int;
  candidates : int;
  candidates_survived : int;
  survivors : int;
  verify_calls : int;
  matched : int;
}

let empty_summary =
  {
    docs = 0;
    entities_seen = 0;
    pruned_lazy = 0;
    buckets_pruned = 0;
    windows = 0;
    span_pruned = 0;
    shift_jumped = 0;
    candidates = 0;
    candidates_survived = 0;
    survivors = 0;
    verify_calls = 0;
    matched = 0;
  }

let summarize t =
  List.fold_left
    (fun s ev ->
      match ev with
      | Doc _ -> { s with docs = s.docs + 1 }
      | Entity _ -> { s with entities_seen = s.entities_seen + 1 }
      | Pruned { reason = Lazy_bound _; _ } ->
          { s with pruned_lazy = s.pruned_lazy + 1 }
      | Pruned { reason = Bucket_pruned; _ } ->
          { s with buckets_pruned = s.buckets_pruned + 1 }
      | Pruned _ -> s
      | Window _ -> { s with windows = s.windows + 1 }
      | Window_skip { reason = Span_pruned; _ } ->
          { s with span_pruned = s.span_pruned + 1 }
      | Window_skip { reason = Shift_jumped _; _ } ->
          { s with shift_jumped = s.shift_jumped + 1 }
      | Window_skip _ -> s
      | Candidate { survived; _ } ->
          {
            s with
            candidates = s.candidates + 1;
            candidates_survived =
              (s.candidates_survived + if survived then 1 else 0);
          }
      | Filter_done { survivors } -> { s with survivors = s.survivors + survivors }
      | Verifier _ -> s
      | Verify { matched; _ } ->
          {
            s with
            verify_calls = s.verify_calls + 1;
            matched = (s.matched + if matched then 1 else 0);
          }
      | Selection _ -> s)
    empty_summary t.events

(* ---- rendering ---- *)

let pct part whole =
  if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

(* Per-entity cost aggregation for the length groups and the top-k. *)
type entity_agg = {
  mutable e_len : int;
  mutable streams : int;
  mutable positions : int;
  mutable a_candidates : int;
  mutable a_verifies : int;
  mutable a_matches : int;
}

let aggregate t =
  let tbl : (int, entity_agg) Hashtbl.t = Hashtbl.create 64 in
  let get entity =
    match Hashtbl.find_opt tbl entity with
    | Some a -> a
    | None ->
        let a =
          {
            e_len = 0;
            streams = 0;
            positions = 0;
            a_candidates = 0;
            a_verifies = 0;
            a_matches = 0;
          }
        in
        Hashtbl.add tbl entity a;
        a
  in
  List.iter
    (fun ev ->
      match ev with
      | Entity { entity; e_len; n_positions } ->
          let a = get entity in
          a.e_len <- e_len;
          a.streams <- a.streams + 1;
          a.positions <- a.positions + n_positions
      | Candidate { entity; _ } ->
          let a = get entity in
          a.a_candidates <- a.a_candidates + 1
      | Verify { entity; matched; _ } ->
          let a = get entity in
          a.a_verifies <- a.a_verifies + 1;
          if matched then a.a_matches <- a.a_matches + 1
      | _ -> ())
    t.events;
  tbl

let render ?(top = 5) ?(name_of = fun id -> Printf.sprintf "e%d" id) t =
  let s = summarize t in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
  line "filter-cascade waterfall (%d events, %d document%s)" t.n_events s.docs
    (if s.docs = 1 then "" else "s");
  let after_lazy = s.entities_seen - s.pruned_lazy in
  line "  entities streamed off the heap   %8d" s.entities_seen;
  line "  | lazy bound (Tl)                %8d pruned  (%5.1f%%) -> %d survive"
    s.pruned_lazy (pct s.pruned_lazy s.entities_seen) after_lazy;
  line "  | bucket count                   %8d buckets pruned" s.buckets_pruned;
  line "  | window search                  %8d windows  (%d span-pruned, %d shift-jumps)"
    s.windows s.span_pruned s.shift_jumped;
  let failed = s.candidates - s.candidates_survived in
  line "  candidates counted               %8d" s.candidates;
  line "  | count test (>= T)              %8d pruned  (%5.1f%%) -> %d survive"
    failed (pct failed s.candidates) s.candidates_survived;
  line "  survivors after dedup            %8d  (%.1f%% of candidates)" s.survivors
    (pct s.survivors s.candidates);
  let wasted = s.verify_calls - s.matched in
  line "  verified matches                 %8d of %d calls  (%d wasted, %.1f%%)"
    s.matched s.verify_calls wasted (pct wasted s.verify_calls);
  let tbl = aggregate t in
  if Hashtbl.length tbl > 0 then begin
    (* Per-entity-length-group heap-merge stats: how much merge traffic
       each entity size class generated. *)
    let groups : (int, int * int * int) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ a ->
        let e, st, p =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt groups a.e_len)
        in
        Hashtbl.replace groups a.e_len (e + 1, st + a.streams, p + a.positions))
      tbl;
    let group_rows =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups [])
    in
    line "heap-merge stats by entity token length";
    List.iter
      (fun (e_len, (n, streams, positions)) ->
        line "  len %2d: %5d entities, %6d list streams, %8d positions merged"
          e_len n streams positions)
      group_rows;
    let by_cost =
      List.sort
        (fun (_, a) (_, b) ->
          compare
            (b.a_candidates + b.a_verifies, b.a_candidates)
            (a.a_candidates + a.a_verifies, a.a_candidates))
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    line "top-%d most expensive entities (candidates + verifications)" top;
    List.iteri
      (fun i (entity, a) ->
        if i < top then
          line "  %-24s %6d candidates, %5d verifications, %4d matches"
            (name_of entity) a.a_candidates a.a_verifies a.a_matches)
      by_cost
  end;
  Buffer.contents buf

(* ---- JSONL export ---- *)

let int k v = (k, Json.int v)

let reason_fields = function
  | Lazy_bound { tl; count } ->
      [ ("reason", Json.Str "lazy"); int "tl" tl; int "count" count ]
  | Bucket_pruned -> [ ("reason", Json.Str "bucket") ]
  | Span_pruned -> [ ("reason", Json.Str "span") ]
  | Shift_jumped n -> [ ("reason", Json.Str "shift"); int "jump" n ]

let event_to_json ev =
  let obj name fields = Json.Obj (("ev", Json.Str name) :: fields) in
  match ev with
  | Doc { doc_id } -> obj "doc" [ int "doc_id" doc_id ]
  | Entity { entity; e_len; n_positions } ->
      obj "entity"
        [ int "entity" entity; int "e_len" e_len; int "positions" n_positions ]
  | Pruned { entity; reason } ->
      obj "pruned" (int "entity" entity :: reason_fields reason)
  | Window { entity; first; last } ->
      obj "window" [ int "entity" entity; int "first" first; int "last" last ]
  | Window_skip { entity; reason } ->
      obj "window_skip" (int "entity" entity :: reason_fields reason)
  | Candidate { entity; start; len; count; t; survived } ->
      obj "candidate"
        [
          int "entity" entity;
          int "start" start;
          int "len" len;
          int "count" count;
          int "t" t;
          ("survived", Json.Bool survived);
        ]
  | Filter_done { survivors } -> obj "filter_done" [ int "survivors" survivors ]
  | Verifier { choice } -> obj "verifier" [ ("choice", Json.Str choice) ]
  | Verify { entity; start; len; matched } ->
      obj "verify"
        [
          int "entity" entity;
          int "start" start;
          int "len" len;
          ("matched", Json.Bool matched);
        ]
  | Selection { total; kept } ->
      obj "selection" [ int "total" total; int "kept" kept ]

let to_jsonl t = Json.to_lines (List.map event_to_json (events t))
