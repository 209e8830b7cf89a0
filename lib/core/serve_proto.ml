module Fault = Faerie_util.Fault
module Json = Faerie_util.Json
module Budget = Faerie_util.Budget
module Score = Faerie_sim.Verify.Score
module Sim = Faerie_sim.Sim
module Trace = Faerie_obs.Trace
module Metrics = Faerie_obs.Metrics

let version = 1

type request = { id : string option; text : string; timeout_ms : int option }

type parse_error = Malformed of string | Version_mismatch of { got : int }

let parse_error_to_string = function
  | Malformed msg -> msg
  | Version_mismatch { got } ->
      Printf.sprintf "unsupported protocol version %d (supported: %d)" got
        version

(* A ["v"] field, when present, must match [version] exactly; requests
   without one are accepted for compatibility with pre-cluster clients. *)
let check_version j =
  match Json.member "v" j with
  | None -> Ok ()
  | Some v -> (
      match Json.to_int v with
      | Some got when got = version -> Ok ()
      | Some got -> Error (Version_mismatch { got })
      | None -> Error (Malformed {|non-integer "v" field|}))

let parse_request ~ord line =
  match
    Fault.with_context ord (fun () ->
        Fault.site "serve_decode";
        Json.of_string line)
  with
  | exception Fault.Injected site ->
      Error (Malformed (Printf.sprintf "injected fault at site %S" site))
  | Error e -> Error (Malformed (Printf.sprintf "bad JSON: %s" e))
  | Ok j -> (
      match check_version j with
      | Error e -> Error e
      | Ok () -> (
          match Option.bind (Json.member "text" j) Json.to_str with
          | None -> Error (Malformed {|missing or non-string "text" field|})
          | Some text ->
              let id =
                match Json.member "id" j with
                | Some (Json.Str s) -> Some s
                | _ -> None
              in
              let timeout_ms =
                Option.bind (Json.member "timeout_ms" j) Json.to_int
              in
              Ok { id; text; timeout_ms }))

let error_json ~ord err =
  let extra =
    match err with
    | Malformed _ -> []
    | Version_mismatch { got } ->
        [ ("got", Json.int got); ("want", Json.int version) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("doc", Json.int ord);
          ("v", Json.int version);
          ("outcome", Json.Str "error");
          ("error", Json.Str (parse_error_to_string err));
        ]
       @ extra))

let score_json = function
  | Score.Similarity f -> Json.Num f
  | Score.Distance d -> Json.int d

let match_json (m : Types.char_match) =
  Json.Obj
    [
      ("e", Json.int m.Types.c_entity);
      ("s", Json.int m.Types.c_start);
      ("l", Json.int m.Types.c_len);
      ("score", score_json m.Types.c_score);
    ]

let response_json ~ord ~id ~gen (out : Parallel.outcome) =
  let matches ms = ("matches", Json.List (List.map match_json ms)) in
  let fields =
    [ ("doc", Json.int ord); ("v", Json.int version) ]
    @ (match id with Some s -> [ ("id", Json.Str s) ] | None -> [])
    @ [
        ("gen", Json.int gen);
        ("outcome", Json.Str (Outcome.class_name (Outcome.classify out)));
      ]
    @
    match out with
    | Outcome.Ok ms -> [ matches ms ]
    | Outcome.Degraded (ms, why) ->
        [
          ("degraded", Json.Str (Outcome.degradation_to_string why)); matches ms;
        ]
    | Outcome.Failed err ->
        [ ("error", Json.Str (Outcome.error_to_string err)) ]
  in
  Json.to_string (Json.Obj fields)

(* ---- structured outcome codec (cluster internal frames) ---- *)

(* The client-facing response renders scores/errors as display strings; the
   coordinator however must reconstruct the exact [Parallel.outcome] a shard
   produced, so these codecs tag every variant. A [Score.Similarity 2.0]
   and [Score.Distance 2] would be indistinguishable as a bare JSON
   number — hence the {"s":f} / {"d":n} tagging. *)

let score_to_json = function
  | Score.Similarity f -> Json.Obj [ ("s", Json.Num f) ]
  | Score.Distance d -> Json.Obj [ ("d", Json.int d) ]

let score_of_json j =
  match (Json.member "s" j, Json.member "d" j) with
  | Some s, _ -> Option.map (fun f -> Score.Similarity f) (Json.to_num s)
  | _, Some d -> Option.map (fun n -> Score.Distance n) (Json.to_int d)
  | None, None -> None

let match_to_json (m : Types.char_match) =
  Json.Obj
    [
      ("e", Json.int m.Types.c_entity);
      ("s", Json.int m.Types.c_start);
      ("l", Json.int m.Types.c_len);
      ("score", score_to_json m.Types.c_score);
    ]

let match_of_json j =
  let int name = Option.bind (Json.member name j) Json.to_int in
  match
    (int "e", int "s", int "l", Option.bind (Json.member "score" j) score_of_json)
  with
  | Some e, Some s, Some l, Some score ->
      Some
        { Types.c_entity = e; c_start = s; c_len = l; c_score = score }
  | _ -> None

let exhaustion_to_tag = function
  | Budget.Deadline -> "deadline"
  | Budget.Bytes -> "bytes"
  | Budget.Candidates -> "candidates"

let exhaustion_of_tag = function
  | "deadline" -> Some Budget.Deadline
  | "bytes" -> Some Budget.Bytes
  | "candidates" -> Some Budget.Candidates
  | _ -> None

let shed_cause_to_tag = function
  | Outcome.Deadline_expired -> "deadline"
  | Outcome.Queue_full -> "queue"
  | Outcome.Shutdown -> "shutdown"

let shed_cause_of_tag = function
  | "deadline" -> Some Outcome.Deadline_expired
  | "queue" -> Some Outcome.Queue_full
  | "shutdown" -> Some Outcome.Shutdown
  | _ -> None

let rec error_to_json (e : Outcome.error) =
  let tag t rest = Json.Obj (("t", Json.Str t) :: rest) in
  match e with
  | Outcome.Doc_too_large { bytes; limit } ->
      tag "doc_too_large"
        [ ("bytes", Json.int bytes); ("limit", Json.int limit) ]
  | Outcome.Budget_exhausted x ->
      tag "budget" [ ("which", Json.Str (exhaustion_to_tag x)) ]
  | Outcome.Tokenize_error msg -> tag "tokenize" [ ("msg", Json.Str msg) ]
  | Outcome.Corrupt_index msg -> tag "corrupt_index" [ ("msg", Json.Str msg) ]
  | Outcome.Injected_fault site -> tag "injected" [ ("site", Json.Str site) ]
  | Outcome.Worker_crash { exn_name; message; backtrace } ->
      tag "crash"
        [
          ("exn", Json.Str exn_name);
          ("msg", Json.Str message);
          ("bt", Json.Str backtrace);
        ]
  | Outcome.Shed cause ->
      tag "shed" [ ("cause", Json.Str (shed_cause_to_tag cause)) ]
  | Outcome.Quarantined { attempts; last } ->
      tag "quarantined"
        [ ("attempts", Json.int attempts); ("last", error_to_json last) ]

let rec error_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  match str "t" with
  | Some "doc_too_large" -> (
      match (int "bytes", int "limit") with
      | Some bytes, Some limit -> Some (Outcome.Doc_too_large { bytes; limit })
      | _ -> None)
  | Some "budget" ->
      Option.map
        (fun x -> Outcome.Budget_exhausted x)
        (Option.bind (str "which") exhaustion_of_tag)
  | Some "tokenize" -> Option.map (fun m -> Outcome.Tokenize_error m) (str "msg")
  | Some "corrupt_index" ->
      Option.map (fun m -> Outcome.Corrupt_index m) (str "msg")
  | Some "injected" -> Option.map (fun s -> Outcome.Injected_fault s) (str "site")
  | Some "crash" -> (
      match (str "exn", str "msg") with
      | Some exn_name, Some message ->
          Some
            (Outcome.Worker_crash
               {
                 exn_name;
                 message;
                 backtrace = Option.value (str "bt") ~default:"";
               })
      | _ -> None)
  | Some "shed" ->
      Option.map
        (fun c -> Outcome.Shed c)
        (Option.bind (str "cause") shed_cause_of_tag)
  | Some "quarantined" -> (
      match (int "attempts", Option.bind (Json.member "last" j) error_of_json)
      with
      | Some attempts, Some last ->
          Some (Outcome.Quarantined { attempts; last })
      | _ -> None)
  | _ -> None

let degradation_to_json (d : Outcome.degradation) =
  let tag t rest = Json.Obj (("t", Json.Str t) :: rest) in
  match d with
  | Outcome.Oversize_chunked { bytes; limit } ->
      tag "oversize" [ ("bytes", Json.int bytes); ("limit", Json.int limit) ]
  | Outcome.Partial x ->
      tag "partial" [ ("which", Json.Str (exhaustion_to_tag x)) ]
  | Outcome.Shard_partial { n_shards; missing } ->
      tag "shard_partial"
        [
          ("shards", Json.int n_shards);
          ("missing", Json.List (List.map Json.int missing));
        ]

let degradation_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  match str "t" with
  | Some "oversize" -> (
      match (int "bytes", int "limit") with
      | Some bytes, Some limit ->
          Some (Outcome.Oversize_chunked { bytes; limit })
      | _ -> None)
  | Some "partial" ->
      Option.map
        (fun x -> Outcome.Partial x)
        (Option.bind (str "which") exhaustion_of_tag)
  | Some "shard_partial" -> (
      let missing =
        Option.bind (Json.member "missing" j) (Json.list_of Json.to_int)
      in
      match (int "shards", missing) with
      | Some n_shards, Some missing ->
          Some (Outcome.Shard_partial { n_shards; missing })
      | _ -> None)
  | _ -> None

let outcome_to_json (o : Parallel.outcome) =
  let matches ms = ("matches", Json.List (List.map match_to_json ms)) in
  match o with
  | Outcome.Ok ms -> Json.Obj [ ("cls", Json.Str "ok"); matches ms ]
  | Outcome.Degraded (ms, why) ->
      Json.Obj
        [
          ("cls", Json.Str "degraded");
          ("why", degradation_to_json why);
          matches ms;
        ]
  | Outcome.Failed err ->
      Json.Obj [ ("cls", Json.Str "failed"); ("error", error_to_json err) ]

let outcome_of_json j : Parallel.outcome option =
  let matches () =
    Option.bind (Json.member "matches" j) (Json.list_of match_of_json)
  in
  match Option.bind (Json.member "cls" j) Json.to_str with
  | Some "ok" -> Option.map (fun ms -> Outcome.Ok ms) (matches ())
  | Some "degraded" -> (
      match (matches (), Option.bind (Json.member "why" j) degradation_of_json)
      with
      | Some ms, Some why -> Some (Outcome.Degraded (ms, why))
      | _ -> None)
  | Some "failed" ->
      Option.map
        (fun e -> Outcome.Failed e)
        (Option.bind (Json.member "error" j) error_of_json)
  | _ -> None

(* ---- serve stderr summary ---- *)

let summary_json ?metrics ?slo ?(counts = []) ~reloads s =
  let opt k = function Some v -> [ (k, v) ] | None -> [] in
  Json.to_string
    (Json.Obj
       (Outcome.summary_fields s
       @ ("reloads", Json.int reloads)
         :: List.map (fun (k, v) -> (k, Json.int v)) counts
       @ opt "slo" slo
       @ opt "metrics" (Option.map Metrics.snapshot_json metrics)))

(* ---- admin plane ---- *)

type admin =
  | Stats
  | Health
  | Slowlog_dump
  | Dict_add of string
  | Dict_remove of string
  | Compact

(* Admin lines share the request NDJSON stream; [parse_admin] peeks at the
   line before {!parse_request} runs. [None] means "not an admin line" —
   hand it to the request parser (which owns the fault-injection site and
   the doc ordinal, so admin probing never perturbs fault schedules). *)
let parse_admin line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> (
      match Option.bind (Json.member "op" j) Json.to_str with
      | None -> None
      | Some op -> (
          match check_version j with
          | Error e -> Some (Error e)
          | Ok () -> (
              match op with
              | "stats" -> Some (Ok Stats)
              | "health" -> Some (Ok Health)
              | "slowlog" -> Some (Ok Slowlog_dump)
              | "compact" -> Some (Ok Compact)
              | "dict_add" | "dict_remove" -> (
                  match Option.bind (Json.member "entity" j) Json.to_str with
                  | Some raw ->
                      Some
                        (Ok
                           (if op = "dict_add" then Dict_add raw
                            else Dict_remove raw))
                  | None ->
                      Some
                        (Error
                           (Malformed
                              (Printf.sprintf
                                 "%s: missing string field \"entity\"" op))))
              | _ ->
                  Some
                    (Error
                       (Malformed (Printf.sprintf "unknown admin op %S" op))))))

let stats_response_json ?(missing = []) ~format snap =
  let fields =
    [ ("v", Json.int version); ("op", Json.Str "stats") ]
    @ (match missing with
      | [] -> []
      | ms ->
          [
            ("partial", Json.Bool true);
            ("missing_shards", Json.List (List.map Json.int ms));
          ])
    @
    match format with
    | `Jsonl -> [ ("metrics", Metrics.snapshot_json snap) ]
    | `Prometheus ->
        [ ("prometheus", Json.Str (Metrics.render_prometheus snap)) ]
  in
  Json.to_string (Json.Obj fields)

type shard_health = {
  h_shard : int;
  h_up : bool;
  h_gen : int;
  h_restarts : int;
  h_queue_depth : int;
  h_delta : int;  (* pending overlay mutations (delta_entities) *)
  h_compact_age_s : float option;
      (* seconds since the serving snapshot was last folded (start or
         last compaction); None when the serving process predates the
         mutation subsystem or the shard is down *)
}

(* [slo] is an assessment (Slo.to_json); [uptime_s] / [max_rss_bytes]
   describe the serving process (rss is the max across the process and
   the last merged shard snapshot in cluster mode). *)
let health_response_json ?uptime_s ?max_rss_bytes ?slo ~status shards =
  let opt k = function Some v -> [ (k, v) ] | None -> [] in
  let num k v = opt k (Option.map (fun f -> Json.Num f) v) in
  let shard h =
    Json.Obj
      ([
         ("shard", Json.int h.h_shard);
         ("up", Json.Bool h.h_up);
         ("gen", Json.int h.h_gen);
         ("restarts", Json.int h.h_restarts);
         ("queue_depth", Json.int h.h_queue_depth);
         (* append-only past this point (locked prefix) *)
         ("delta", Json.int h.h_delta);
       ]
      @ num "compact_age_s" h.h_compact_age_s)
  in
  Json.to_string
    (Json.Obj
       ([
          ("v", Json.int version);
          ("op", Json.Str "health");
          ("status", Json.Str status);
          ("shards", Json.List (List.map shard shards));
        ]
       @ num "uptime_s" uptime_s
       @ num "max_rss_bytes" max_rss_bytes
       @ opt "slo" slo))

(* [records] are Slowrec records, slowest first; [total] counts captures
   since arming, including entries since evicted from the ring. *)
let slowlog_response_json ~total records =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.int version);
         ("op", Json.Str "slowlog");
         ("total", Json.int total);
         ("records", Json.List records);
       ])

(* ---- dictionary-mutation admin responses ---- *)

(* [applied] distinguishes a mutation that changed the dictionary from an
   idempotent no-op (adding a live raw, removing an absent one) — WAL
   replay after a crash leans on that distinction. [entity] is the id the
   mutation resolved to (-1 when none, e.g. removing an absent raw);
   [entities] is the live count after the op; [gen] names the serving
   snapshot generation the overlay rides on. *)
let dict_response_json ~op ~applied ~entity ~entities ~gen =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.int version);
         ("op", Json.Str op);
         ("outcome", Json.Str "ok");
         ("applied", Json.Bool applied);
         ("entity", Json.int entity);
         ("entities", Json.int entities);
         ("gen", Json.int gen);
       ])

let compact_response_json ~gen ~folded ~entities =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.int version);
         ("op", Json.Str "compact");
         ("outcome", Json.Str "ok");
         ("gen", Json.int gen);
         ("folded", Json.int folded);
         ("entities", Json.int entities);
       ])

(* Admin-op failure (WAL append rejected, compaction aborted, mutations
   not armed): the op echoes back with an error, the dictionary is
   untouched. *)
let admin_error_json ~op error =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.int version);
         ("op", Json.Str op);
         ("outcome", Json.Str "error");
         ("error", Json.Str error);
       ])

(* ---- slowlog records ---- *)

(* A slowlog record is a self-contained repro in the Quarantine record
   tradition: everything needed to re-run the document — text, spec,
   opts, fault campaign, fault key — plus the observation that made it
   interesting (wall time, outcome class, per-stage breakdown, trace
   id). The ["kind":"slowlog"] discriminator lets [fuzz --replay]
   dispatch: quarantine records reproduce iff the document fails again,
   slowlog records reproduce iff the outcome {e class} matches (most
   slow requests succeeded — that's the point). *)
module Slowrec = struct
  type t = {
    doc_id : int;
        (* the fault-context key the run used: the serve ordinal in
           single mode, the shard-salted key in cluster mode *)
    id : string option;
    trace : int;  (* sampling trace id; 0 = unsampled *)
    gen : int;  (* snapshot generation that served the request *)
    wall_ms : float;
    outcome : string;  (* Outcome.class_name: ok | degraded | failed *)
    stages_ms : (string * float) list;
        (* per-stage wall breakdown; [] when the stage brackets were not
           armed in the serving process (e.g. a coordinator-side record
           for an unsampled cluster request) *)
    sim : Sim.t;
    q : int;
    pruning : Types.pruning;
    budget : Budget.spec;
    fault : Fault.config option;
    text : string;
  }

  let to_json r =
    Json.Obj
      [
        ("kind", Json.Str "slowlog");
        ("doc", Json.int r.doc_id);
        ("id", match r.id with Some s -> Json.Str s | None -> Json.Null);
        ("trace", Json.int r.trace);
        ("gen", Json.int r.gen);
        ("wall_ms", Json.Num r.wall_ms);
        ("outcome", Json.Str r.outcome);
        ( "stages_ms",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) r.stages_ms) );
        ("sim", Json.Str (Sim.to_spec r.sim));
        ("q", Json.int r.q);
        ("pruning", Json.Str (Types.pruning_name r.pruning));
        ("budget", Budget.spec_to_json r.budget);
        ( "fault",
          Option.fold ~none:Json.Null ~some:Fault.config_to_json r.fault );
        ("text", Json.Str r.text);
      ]

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
        let* kind = field "kind" Json.to_str in
        if kind <> "slowlog" then
          Error (Printf.sprintf "not a slowlog record (kind %S)" kind)
        else
          let* doc_id = field "doc" Json.to_int in
          let id =
            match Json.member "id" j with Some (Json.Str s) -> Some s | _ -> None
          in
          let* trace = field "trace" Json.to_int in
          let* gen = field "gen" Json.to_int in
          let* wall_ms = field "wall_ms" Json.to_num in
          let* outcome = field "outcome" Json.to_str in
          let stages_ms =
            match Json.member "stages_ms" j with
            | Some (Json.Obj kvs) ->
                List.filter_map
                  (fun (n, v) -> Option.map (fun f -> (n, f)) (Json.to_num v))
                  kvs
            | _ -> []
          in
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
          let fault =
            Option.bind (Json.member "fault" j) Fault.config_of_json
          in
          let* text = field "text" Json.to_str in
          Ok
            {
              doc_id; id; trace; gen; wall_ms; outcome; stages_ms; sim; q;
              pruning; budget; fault; text;
            })
end

(* ---- length-prefixed frames ---- *)

module Frame = struct
  let max_len = 1 lsl 26

  let rec write_all fd buf off len =
    if len > 0 then
      match Unix.write fd buf off len with
      | n -> write_all fd buf (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len

  let write fd payload =
    let n = String.length payload in
    if n > max_len then
      invalid_arg (Printf.sprintf "Serve_proto.Frame.write: %d-byte frame" n);
    let buf = Bytes.create (4 + n) in
    Bytes.set_int32_be buf 0 (Int32.of_int n);
    Bytes.blit_string payload 0 buf 4 n;
    write_all fd buf 0 (4 + n)

  type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

  let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

  let reader_fd r = r.fd

  (* Extract one complete frame from the buffered bytes, if present. *)
  let take r =
    let b = Buffer.contents r.buf in
    if String.length b < 4 then None
    else
      let len = Int32.to_int (String.get_int32_be b 0) in
      if len < 0 || len > max_len then Some (Error len)
      else if String.length b < 4 + len then None
      else begin
        let payload = String.sub b 4 len in
        Buffer.clear r.buf;
        Buffer.add_substring r.buf b (4 + len) (String.length b - 4 - len);
        Some (Ok payload)
      end

  let read ?deadline_ns r =
    let rec loop () =
      match take r with
      | Some (Ok payload) -> `Frame payload
      | Some (Error len) ->
          `Corrupt (Printf.sprintf "bad frame length %d" len)
      | None -> (
          let timeout =
            match deadline_ns with
            | None -> -1.
            | Some d ->
                Int64.to_float (Int64.sub d (Trace.now_ns ())) /. 1e9
          in
          if deadline_ns <> None && timeout <= 0. then `Timeout
          else
            match Unix.select [ r.fd ] [] [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            | [], _, _ -> if deadline_ns = None then loop () else `Timeout
            | _ -> (
                match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
                | 0 -> `Eof
                | n ->
                    Buffer.add_subbytes r.buf r.chunk 0 n;
                    loop ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
                | exception
                    Unix.Unix_error
                      ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                    `Eof))
    in
    loop ()
end

(* ---- coordinator <-> shard messages ---- *)

module Shard = struct
  type msg =
    | Doc of {
        doc : int;
        attempt : int;
        timeout_ms : int option;
        text : string;
        trace : (int * int) option;
            (* (trace id, absolute depth) the shard's subtree records
               under; [None] (field absent) when tracing is off *)
      }
    | Prepare of { gen : int; path : string }
    | Commit of { gen : int }
    | Abort of { gen : int }
    | Dict_add of { raw : string }
    | Dict_remove of { raw : string }
    | Stats_req
    | Shutdown

  type reply =
    | Ready of { shard : int; gen : int; now_ns : int64 }
    | Result of {
        doc : int;
        gen : int;
        outcome : Parallel.outcome;
        spans : Trace.span list;
        stages : (string * float) list;
            (* per-stage wall breakdown (name, ns) from the shard's
               slowlog stage brackets; [] (field absent) when stage
               timing is off *)
      }
    | Prepared of { gen : int }
    | Prepare_failed of { gen : int; error : string }
    | Committed of { gen : int }
    | Aborted of { gen : int }
    | Refused of { error : string }
    | Mutated of { gen : int; entity : int; applied : bool }
        (* outcome of a Dict_add/Dict_remove: [entity] is the shard-local
           id the mutation resolved to (-1 when none), [applied] false for
           idempotent no-ops *)
    | Stats_reply of { shard : int; snapshot : Metrics.snapshot }
    | Bye of { restarts : int; quarantined : int }

  let obj op fields =
    Json.Obj (("v", Json.int version) :: ("op", Json.Str op) :: fields)

  let msg_to_string m =
    Json.to_string
      (match m with
      | Doc { doc; attempt; timeout_ms; text; trace } ->
          obj "doc"
            ([ ("doc", Json.int doc); ("attempt", Json.int attempt) ]
            @ (match timeout_ms with
              | Some t -> [ ("timeout_ms", Json.int t) ]
              | None -> [])
            @ (match trace with
              | Some (tid, depth) ->
                  [ ("trace", Json.int tid); ("tdepth", Json.int depth) ]
              | None -> [])
            @ [ ("text", Json.Str text) ])
      | Prepare { gen; path } ->
          obj "prepare" [ ("gen", Json.int gen); ("path", Json.Str path) ]
      | Commit { gen } -> obj "commit" [ ("gen", Json.int gen) ]
      | Abort { gen } -> obj "abort" [ ("gen", Json.int gen) ]
      | Dict_add { raw } -> obj "dict_add" [ ("entity", Json.Str raw) ]
      | Dict_remove { raw } -> obj "dict_remove" [ ("entity", Json.Str raw) ]
      | Stats_req -> obj "stats" []
      | Shutdown -> obj "shutdown" [])

  let reply_to_string r =
    Json.to_string
      (match r with
      | Ready { shard; gen; now_ns } ->
          obj "ready"
            [
              ("shard", Json.int shard);
              ("gen", Json.int gen);
              ("now", Json.Int now_ns);
            ]
      | Result { doc; gen; outcome; spans; stages } ->
          obj "result"
            ([ ("doc", Json.int doc); ("gen", Json.int gen) ]
            @ (match spans with
              | [] -> []
              | _ ->
                  [ ("spans", Json.List (List.map Trace.span_to_json spans)) ])
            @ (match stages with
              | [] -> []
              | _ ->
                  [
                    ( "stages",
                      Json.Obj
                        (List.map (fun (n, v) -> (n, Json.Num v)) stages) );
                  ])
            @ [ ("out", outcome_to_json outcome) ])
      | Prepared { gen } -> obj "prepared" [ ("gen", Json.int gen) ]
      | Prepare_failed { gen; error } ->
          obj "prepare_failed"
            [ ("gen", Json.int gen); ("error", Json.Str error) ]
      | Committed { gen } -> obj "committed" [ ("gen", Json.int gen) ]
      | Aborted { gen } -> obj "aborted" [ ("gen", Json.int gen) ]
      | Refused { error } -> obj "refused" [ ("error", Json.Str error) ]
      | Mutated { gen; entity; applied } ->
          obj "mutated"
            [
              ("gen", Json.int gen);
              ("entity", Json.int entity);
              ("applied", Json.Bool applied);
            ]
      | Stats_reply { shard; snapshot } ->
          obj "stats"
            [
              ("shard", Json.int shard);
              ("snapshot", Metrics.snapshot_to_wire snapshot);
            ]
      | Bye { restarts; quarantined } ->
          obj "bye"
            [
              ("restarts", Json.int restarts);
              ("quarantined", Json.int quarantined);
            ])

  let decode line =
    match Json.of_string line with
    | Error e -> Error (Malformed (Printf.sprintf "bad frame JSON: %s" e))
    | Ok j -> (
        (* Frames always carry ["v"]: a missing field is a framing bug, not
           an old client, so unlike requests it is rejected. *)
        match Option.bind (Json.member "v" j) Json.to_int with
        | None -> Error (Malformed {|frame without integer "v" field|})
        | Some got when got <> version -> Error (Version_mismatch { got })
        | Some _ -> (
            match Option.bind (Json.member "op" j) Json.to_str with
            | None -> Error (Malformed {|frame without "op" field|})
            | Some op -> Ok (op, j)))

  let msg_of_string line =
    match decode line with
    | Error e -> Error e
    | Ok (op, j) -> (
        let int name = Option.bind (Json.member name j) Json.to_int in
        let str name = Option.bind (Json.member name j) Json.to_str in
        let bad () =
          Error (Malformed (Printf.sprintf "bad %S frame: %s" op line))
        in
        match op with
        | "doc" -> (
            match (int "doc", int "attempt", str "text") with
            | Some doc, Some attempt, Some text ->
                let trace =
                  match (int "trace", int "tdepth") with
                  | Some tid, Some depth -> Some (tid, depth)
                  | _ -> None
                in
                Ok
                  (Doc
                     { doc; attempt; timeout_ms = int "timeout_ms"; text; trace })
            | _ -> bad ())
        | "prepare" -> (
            match (int "gen", str "path") with
            | Some gen, Some path -> Ok (Prepare { gen; path })
            | _ -> bad ())
        | "commit" -> (
            match int "gen" with Some gen -> Ok (Commit { gen }) | None -> bad ())
        | "abort" -> (
            match int "gen" with Some gen -> Ok (Abort { gen }) | None -> bad ())
        | "dict_add" -> (
            match str "entity" with
            | Some raw -> Ok (Dict_add { raw })
            | None -> bad ())
        | "dict_remove" -> (
            match str "entity" with
            | Some raw -> Ok (Dict_remove { raw })
            | None -> bad ())
        | "stats" -> Ok Stats_req
        | "shutdown" -> Ok Shutdown
        | _ -> Error (Malformed (Printf.sprintf "unknown frame op %S" op)))

  let reply_of_string line =
    match decode line with
    | Error e -> Error e
    | Ok (op, j) -> (
        let int name = Option.bind (Json.member name j) Json.to_int in
        let str name = Option.bind (Json.member name j) Json.to_str in
        let bad () =
          Error (Malformed (Printf.sprintf "bad %S frame: %s" op line))
        in
        match op with
        | "ready" -> (
            let now = Option.bind (Json.member "now" j) Json.to_int64 in
            match (int "shard", int "gen", now) with
            | Some shard, Some gen, Some now_ns ->
                Ok (Ready { shard; gen; now_ns })
            | _ -> bad ())
        | "result" -> (
            let spans =
              match Json.member "spans" j with
              | None -> Some []
              | Some ss -> Json.list_of Trace.span_of_json ss
            in
            let stages =
              match Json.member "stages" j with
              | Some (Json.Obj kvs) ->
                  List.filter_map
                    (fun (n, v) ->
                      Option.map (fun f -> (n, f)) (Json.to_num v))
                    kvs
              | _ -> []
            in
            match
              ( int "doc",
                int "gen",
                spans,
                Option.bind (Json.member "out" j) outcome_of_json )
            with
            | Some doc, Some gen, Some spans, Some outcome ->
                Ok (Result { doc; gen; outcome; spans; stages })
            | _ -> bad ())
        | "prepared" -> (
            match int "gen" with
            | Some gen -> Ok (Prepared { gen })
            | None -> bad ())
        | "prepare_failed" -> (
            match (int "gen", str "error") with
            | Some gen, Some error -> Ok (Prepare_failed { gen; error })
            | _ -> bad ())
        | "committed" -> (
            match int "gen" with
            | Some gen -> Ok (Committed { gen })
            | None -> bad ())
        | "aborted" -> (
            match int "gen" with
            | Some gen -> Ok (Aborted { gen })
            | None -> bad ())
        | "refused" -> (
            match str "error" with
            | Some error -> Ok (Refused { error })
            | None -> bad ())
        | "mutated" -> (
            match
              ( int "gen",
                int "entity",
                Option.bind (Json.member "applied" j) Json.to_bool )
            with
            | Some gen, Some entity, Some applied ->
                Ok (Mutated { gen; entity; applied })
            | _ -> bad ())
        | "stats" -> (
            match
              ( int "shard",
                Option.bind (Json.member "snapshot" j)
                  Metrics.snapshot_of_wire )
            with
            | Some shard, Some snapshot -> Ok (Stats_reply { shard; snapshot })
            | _ -> bad ())
        | "bye" -> (
            match (int "restarts", int "quarantined") with
            | Some restarts, Some quarantined ->
                Ok (Bye { restarts; quarantined })
            | _ -> bad ())
        | _ -> Error (Malformed (Printf.sprintf "unknown frame op %S" op)))
end
