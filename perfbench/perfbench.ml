(* End-to-end benchmark of `faerie serve`.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --workload all ...    (every workload, one process each)
     perfbench --selftest            (small sizes, seconds per workload)

   --trace 0 spawns the server on the workload's seeded inputs, measures
   set-up, a saturated closed-loop phase and a paced open-loop phase, and
   checks every response. --trace 1 serves the stream once more and
   replays it in-process through each layer (see Traced). Either prints a
   human-readable report, then one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. *)

module W = Workload
module Json = Faerie_util.Json
module Dynarray = Faerie_util.Dynarray

let exe = "_build/default/bin/faerie_cli.exe"

(* Closed-loop window: the same for every workload, below the server's
   default --queue 64 so admission never blocks the reader. *)
let window = 16

(* Paced-phase latency percentiles are taken per window of about
   [window_samples] requests, and the median window is reported. A window
   in which the generator sent a request more than [stall_ms] late did not
   apply the load it claims (the host stalled the benchmark): it is reported,
   not recorded. A run with fewer than half its windows valid is invalid
   and measured again. *)
let window_samples = 40

let stall_ms = 5.

(* The end-to-end metrics every workload reports in its JSON result: the
   regression gate. Saturated docs_per_s is printed but not gated: on a
   shared 2-vCPU host its window rates for identical work move between
   ~400/s and ~650/s with the host's load, for minutes at a time, which no
   run length averages away; latency at a fixed paced rate moves far less. *)
let e2e_metrics = [ "setup_s"; "p50_ms"; "p90_ms"; "peak_rss_mb" ]

let fi = float_of_int

let ms_of ns = Int64.to_float ns /. 1e6

let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Split timed samples [(t, v)] ([t] in seconds from the phase start,
   within [span]) into [k] equal windows; apply [stat] to each non-empty
   window that [keep] accepts. Returns the median window's figure and the
   number of windows kept. *)
let windowed ?(keep = fun _ -> true) ~k ~span stat samples =
  let per = Array.make k [] in
  List.iter
    (fun ((t, _) as x) ->
      let i = max 0 (min (k - 1) (int_of_float (t /. span *. float_of_int k))) in
      per.(i) <- x :: per.(i))
    samples;
  let kept = Array.to_list per |> List.filter (fun w -> w <> [] && keep w) in
  let figs = List.map stat kept |> List.filter (fun v -> not (Float.is_nan v)) in
  (pct (sorted figs) 0.5, List.length kept)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let run_dir w seed =
  let d = Printf.sprintf ".perfbench/%s-s%d" w.W.name seed in
  mkdir_p d;
  d

let write_lines path a =
  let oc = open_out path in
  Array.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    a;
  close_out oc

(* ---- provenance ---- *)

let command_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let l = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    l
  with _ -> ""

(* Digest of every source file that builds the measured program and the
   benchmark: names the tree even where there is no git metadata. *)
let tree_hash () =
  let files = ref [] in
  let rec walk p =
    if Sys.is_directory p then
      Array.iter
        (fun f -> if f.[0] <> '.' && f <> "_build" then walk (Filename.concat p f))
        (Sys.readdir p)
    else files := p :: !files
  in
  List.iter
    (fun p -> if Sys.file_exists p then walk p)
    [ "dune-project"; "lib"; "bin"; "perfbench" ];
  let b = Buffer.create 65536 in
  List.iter
    (fun f ->
      Buffer.add_string b f;
      Buffer.add_char b '\000';
      Buffer.add_string b (In_channel.with_open_bin f In_channel.input_all))
    (List.sort compare !files);
  Digest.to_hex (Digest.string (Buffer.contents b))

let provenance w ~seed ~args =
  let git = Sys.file_exists ".git" in
  let rev = if git then command_line "git rev-parse --short HEAD" else "" in
  let dirty =
    if git then
      Json.Bool (command_line "git status --porcelain --untracked-files=no" <> "")
    else Json.Null
  in
  Json.to_string
    (Json.Obj
       [
         ("rev", Json.Str (if rev = "" then "unknown" else rev));
         ("dirty", dirty);
         ("tree", Json.Str (tree_hash ()));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("nproc", Json.Num (fi (Domain.recommended_domain_count ())));
         ("workload", Json.Str w.W.name);
         ("seed", Json.Num (fi seed));
         ("server", Json.Str (String.concat " " ("faerie" :: args)));
       ])

(* ---- reporting ---- *)

let num v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

let print_metric (name, v, unit) = Printf.printf "  %-34s %14s %s\n" name (num v) unit

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (num v) unit)
          metrics))

(* ---- serving ---- *)

type served = {
  inp : W.inputs;
  reqs : Client.req array;
  verdict : Check.verdict;
  base : Faerie_core.Extractor.t;
  setup_s : float list;
  phases : (string * int64 * int64) list;  (** name, start, end *)
  stats0 : Json.t option;
  stats1 : Json.t option;
  health : Json.t option;
  last_recv : int64;
}

let parse l = match Json.of_string l with Ok j -> Some j | Error _ -> None

(* Spawn [setups] servers one after another (all but the last only to
   time set-up), then run [phases] on the last and finish with stats and
   health. *)
let serve ~size w ~seed ~setups ~phases =
  let inp = W.generate ~size w ~seed in
  W.check_alphabet inp;
  let dir = run_dir w seed in
  let dict = Filename.concat dir "entities.txt" in
  write_lines dict inp.W.entities;
  let wal = if w.W.mutate then Some (Filename.concat dir "serve.wal") else None in
  let args = W.server_flags w ~dict ~wal in
  print_endline ("provenance " ^ provenance w ~seed ~args);
  let start i =
    Option.iter (fun f -> if Sys.file_exists f then Sys.remove f) wal;
    Client.start ~exe ~args
      ~stderr_path:(Filename.concat dir (Printf.sprintf "serve-%d.stderr" i))
      inp
  in
  let times = ref [] in
  for i = 1 to setups - 1 do
    let s, t = start i in
    times := t :: !times;
    ignore (Client.stop s.Client.srv : Unix.process_status)
  done;
  let s, t = start setups in
  times := t :: !times;
  let stats () = parse (fst (Client.admin s Client.stats)) in
  let stats0 = stats () in
  let phases =
    List.map
      (fun (name, f) ->
        let t0, t1 = f s in
        (name, t0, t1))
      phases
  in
  let last_recv = s.Client.last_recv in
  let stats1 = stats () in
  let health = parse (fst (Client.admin s Client.health)) in
  (match Client.stop s.Client.srv with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "faerie serve did not exit cleanly");
  let reqs = Dynarray.to_array s.Client.reqs in
  let verdict, base = Check.run inp reqs in
  List.iter (fun e -> Printf.printf "mismatch %s\n" e) verdict.Check.examples;
  { inp; reqs; verdict; base; setup_s = !times; phases; stats0; stats1; health; last_recv }

let phase sv name = List.find (fun (n, _, _) -> n = name) sv.phases

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let counter sv name =
  let get = function
    | Some j -> Option.bind (member [ "metrics"; "counters"; name ] j) Json.to_int
    | None -> None
  in
  match (get sv.stats0, get sv.stats1) with
  | Some a, Some b -> b - a
  | Some _, None | None, Some _ | None, None -> -1

(* Naive-oracle sample: the first few documents (one long page). *)
let oracle sv =
  let w = sv.inp.W.w in
  let docs = match w.W.profile with W.Dblp -> [ 0; 1; 2 ] | W.Webpage -> [ 0 ] in
  let stride = max 1 (Array.length sv.inp.W.entities / 100) in
  Check.oracle sv.inp sv.base ~docs ~stride

(* ---- --trace 0: end-to-end metrics ---- *)

let e2e ?(size = W.Full) w ~seed ~seconds =
  let setups = match size with W.Full -> 7 | W.Small -> 2 in
  let sv =
    serve ~size w ~seed ~setups
      ~phases:
        [
          ( "saturate",
            fun s -> Client.closed s ~window ~seconds:(0.4 *. seconds) ~phase:"saturate" );
          ( "paced",
            fun s ->
              Client.paced s ~rate:w.W.paced_rate ~seconds:(0.6 *. seconds) ~phase:"paced" );
        ]
  in
  let bad = sv.verdict.Check.bad in
  let is_doc (r : Client.req) =
    match r.Client.kind with
    | Client.KDoc _ | Client.KProbe _ -> true
    | Client.KMut _ -> false
  in
  let _, s0, s1 = phase sv "saturate" in
  let since t0 t = Int64.to_float (Int64.sub t t0) /. 1e9 in
  let done_at =
    Array.fold_left
      (fun acc (r : Client.req) ->
        if is_doc r && r.Client.recv >= s0 && r.Client.recv <= s1 then
          let t = since s0 r.Client.recv in
          (t, t) :: acc
        else acc)
      [] sv.reqs
  in
  (* Throughput: per one-second window, the completion rate between the
     window's first and last completion; the median window is reported. *)
  let rate window =
    let ts = sorted (List.map snd window) in
    let n = Array.length ts in
    if n < 2 then nan else fi (n - 1) /. (ts.(n - 1) -. ts.(0))
  in
  let sat_span = since s0 s1 in
  let docs_per_s, _ =
    windowed ~k:(max 1 (int_of_float sat_span)) ~span:sat_span rate done_at
  in
  (* A refused or mismatched request misses every latency limit. *)
  let _, p0, p1 = phase sv "paced" in
  let latency i (r : Client.req) from =
    if bad.(i) then infinity else ms_of (Int64.sub r.Client.recv from)
  in
  let lat = ref [] and mlat = ref [] and late = ref [] in
  Array.iteri
    (fun i (r : Client.req) ->
      if r.Client.phase = "paced" then
        match r.Client.kind with
        | Client.KDoc _ ->
            let l = ms_of (Int64.sub r.Client.sent r.Client.sched) in
            lat := (since p0 r.Client.sched, (latency i r r.Client.sched, l)) :: !lat;
            late := l :: !late
        | Client.KMut _ ->
            mlat := latency i r r.Client.sent :: !mlat;
            late := ms_of (Int64.sub r.Client.sent r.Client.sched) :: !late
        | Client.KProbe _ -> ())
    sv.reqs;
  let k = max 3 (List.length !lat / window_samples) in
  let paced_pct p =
    windowed ~k ~span:(since p0 p1)
      ~keep:(List.for_all (fun (_, (_, l)) -> l <= stall_ms))
      (fun w -> pct (sorted (List.map (fun (_, (v, _)) -> v) w)) p)
      !lat
  in
  let p50, valid_windows = paced_pct 0.5 and p90, _ = paced_pct 0.9 in
  let all_lat = sorted (List.map (fun (_, (v, _)) -> v) !lat) in
  let from_send =
    sorted (List.map (fun (_, (v, l)) -> v -. l) !lat)
  in
  Printf.printf "  paced latency from actual send: p50 %.3f ms, p90 %.3f ms\n"
    (pct from_send 0.5) (pct from_send 0.9);
  let mlat = sorted !mlat and late = sorted !late in
  let rss =
    match Option.bind sv.health (Json.member "max_rss_bytes") with
    | Some j -> Option.value (Json.to_num j) ~default:nan /. 1e6
    | None -> nan
  in
  let attempted = Array.length sv.reqs and failed = sv.verdict.Check.n_bad in
  let oracle_bad = oracle sv in
  let metrics =
    [
      ("setup_s", Traced.median sv.setup_s, "s");
      ("docs_per_s", docs_per_s, "1/s");
      ("p50_ms", p50, "ms");
      ("p90_ms", p90, "ms");
      ("peak_rss_mb", rss, "MB");
    ]
  in
  let extra =
    (if Array.length all_lat >= 1000 then [ ("p99_ms", pct all_lat 0.99, "ms") ] else [])
    @ [ ("failed_frac", fi failed /. fi attempted, "ratio") ]
    @
    if w.W.mutate then
      [ ("mutate_p50_ms", pct mlat 0.5, "ms"); ("mutate_p90_ms", pct mlat 0.9, "ms") ]
    else []
  in
  Printf.printf "workload %s seed %d: %s\n" w.W.name seed w.W.why;
  Printf.printf
    "  saturate: closed loop, window %d, %d documents completed\n\
    \  paced: open loop at %g lines/s, %d documents, %d mutations; generator \
     lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms; %d of %d windows valid\n\
    \  oracle sample: %d document(s) disagree with Naive\n"
    window (List.length done_at) w.W.paced_rate (Array.length all_lat) (Array.length mlat)
    (pct late 0.5) (pct late 0.99) (pct late 1.) valid_windows k oracle_bad;
  List.iter print_metric (metrics @ extra);
  let correct = failed = 0 && oracle_bad = 0 in
  let valid = 2 * valid_windows >= k in
  (sv, metrics @ extra, correct, valid, attempted, failed + oracle_bad)

(* ---- --trace 1: per-layer metrics ---- *)

let trace ?(size = W.Full) w ~seed ~seconds =
  let sv =
    serve ~size w ~seed ~setups:1
      ~phases:
        [
          ( "trace",
            fun s -> Client.closed s ~window ~seconds:(0.25 *. seconds) ~phase:"trace" );
        ]
  in
  let _, t0, _ = phase sv "trace" in
  let busy_ns = Int64.to_float (Int64.sub sv.last_recv t0) in
  let sub =
    match (size, w.W.profile) with
    | W.Full, W.Dblp -> 300
    | W.Full, W.Webpage -> 12
    | W.Small, _ -> 4
  in
  let dir = run_dir w seed in
  let res =
    Traced.run ~inp:sv.inp ~served:sv.reqs ~busy_ns ~sub
      ~wal_path:(Filename.concat dir "replay.wal")
  in
  Span.write res.Traced.spans (Filename.concat dir "spans.tsv");
  (* Each shard tokenizes every document; every other count is split
     across shards by entity range and sums to the single-process count. *)
  let mult name = if name = "tokenize_tokens" then max 1 w.W.shards else 1 in
  let mismatches =
    List.filter_map
      (fun (name, v) ->
        let served = counter sv name in
        Printf.printf "  count %-24s replay %12d  served %12d\n" name (v * mult name)
          served;
        if served <> v * mult name then Some name else None)
      (Traced.count_fields res.Traced.counts)
  in
  Printf.printf "workload %s seed %d (traced): %d requests replayed\n" w.W.name seed
    (Array.length sv.reqs);
  Printf.printf "  layer self time (ms) and share of served busy time %.1f ms:\n"
    (busy_ns /. 1e6);
  List.iter
    (fun (name, total, k) ->
      Printf.printf "    %-20s %10.2f  %6.1f%%  x%d\n" name (total /. 1e6)
        (100. *. total /. busy_ns) k)
    (Span.self_times res.Traced.spans);
  List.iter
    (fun ((n, _, _) as m) -> if n = "serve.unaccounted_frac" then print_metric m)
    res.Traced.metrics;
  List.iter print_metric res.Traced.metrics;
  if mismatches <> [] then
    Printf.printf "  COUNT MISMATCH: %s\n" (String.concat ", " mismatches);
  let failed = sv.verdict.Check.n_bad + List.length mismatches in
  (res.Traced.metrics, failed = 0, Array.length sv.reqs, failed)

(* ---- self-tests (small sizes, seconds each) ---- *)

let bench_names key =
  let str m k = Option.bind (Json.member k m) Json.to_str in
  match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Ok j ->
      List.filter_map
        (fun m ->
          match (str m "name", str m "unit") with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        (Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list))
  | Error _ -> []

let covers key metrics =
  let want = bench_names key in
  want <> []
  && List.for_all
       (fun (n, u) -> List.exists (fun (n', _, u') -> n = n' && u = u') metrics)
       want

(* Run this benchmark again in a child process (echoing its report); returns
   its exit status and last line. *)
let child args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let lines = In_channel.input_all ic in
  print_string lines;
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim lines)) with
    | l :: _ -> l
    | [] -> ""
  in
  (status, last)

let selftest () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "PASS" else "FAIL") what;
    if not ok then incr failures
  in
  List.iter
    (fun w ->
      let d s = W.stream_digest (W.generate ~size:W.Small w ~seed:s) ~n:400 in
      expect (w.W.name ^ ": same seed, identical stream") (d 1 = d 1);
      expect (w.W.name ^ ": different seed, different stream") (d 1 <> d 2);
      let sv, metrics, correct, _, _, _ = e2e ~size:W.Small w ~seed:1 ~seconds:2. in
      expect (w.W.name ^ ": responses correct") correct;
      let named n = List.exists (fun (n', _, _) -> n = n') metrics in
      expect
        (w.W.name ^ ": every end-to-end metric printed with its unit")
        (covers "end_to_end" metrics && named "failed_frac"
        && ((not w.W.mutate) || (named "mutate_p50_ms" && named "mutate_p90_ms")));
      let copy = Array.map (fun (r : Client.req) -> { r with Client.resp = r.Client.resp }) sv.reqs in
      let v, _ = Check.run ~corrupt:(Array.length copy / 2) sv.inp copy in
      expect (w.W.name ^ ": a corrupted response trips the gate") (v.Check.n_bad = 1);
      (* Traced runs fork shard processes, which OCaml 5 allows only before
         a process has spawned a domain: each runs in its own process. *)
      let status, last =
        child
          [ "--workload"; w.W.name; "--seed"; "1"; "--seconds"; "2"; "--trace"; "1"; "--small" ]
      in
      let metrics =
        match Option.bind (parse last) (member [ "metrics" ]) with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (n, m) ->
                match Option.bind (Json.member "unit" m) Json.to_str with
                | Some u -> Some (n, 0., u)
                | None -> None)
              fields
        | _ -> []
      in
      expect
        (w.W.name ^ ": traced counts equal served stats counters")
        (status = Unix.WEXITED 0
        && Option.bind (parse last) (Json.member "correct") = Some (Json.Bool true));
      expect
        (w.W.name ^ ": every per-layer metric printed with its unit")
        (covers "per_layer" metrics))
    W.all;
  Printf.printf "selftest: %d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1

(* ---- command line ---- *)

let usage =
  "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--small] \
   | --selftest"

let main () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  at_exit Client.kill_all;
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and traced = ref 0 in
  let self = ref false and small = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int traced, "0|1");
      ("--selftest", Arg.Set self, " run the small-size self-tests");
      ("--small", Arg.Set small, " self-test input sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: " ^ exe ^ " is missing (run through perfbench/run.sh)");
    exit 2
  end;
  if !self then exit (selftest ());
  if !workload = "all" then begin
    (* Every workload in turn, each in its own process. *)
    let failed =
      List.filter
        (fun w ->
          let status, _ =
            child
              ([ "--workload"; w.W.name; "--seed"; string_of_int !seed; "--seconds";
                 Printf.sprintf "%g" !seconds; "--trace"; string_of_int !traced ]
              @ if !small then [ "--small" ] else [])
          in
          status <> Unix.WEXITED 0)
        W.all
    in
    exit (if failed = [] then 0 else 1)
  end;
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          (usage ^ "\nworkloads: "
          ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let size = if !small then W.Small else W.Full in
  let metrics, correct, attempted, failed =
    if !traced = 0 then begin
      (* An invalid measurement is reported and not recorded: the run is
         measured again, up to three attempts. *)
      let rec attempt k =
        let _, metrics, correct, valid, attempted, failed =
          e2e ~size w ~seed:!seed ~seconds:!seconds
        in
        if valid || not correct then (metrics, correct, attempted, failed)
        else begin
          Printf.printf
            "run invalid (attempt %d of 3): the paced generator ran more than \
             %g ms late in over half the windows; not recorded\n"
            k stall_ms;
          if k < 3 then attempt (k + 1) else exit 3
        end
      in
      let metrics, correct, attempted, failed = attempt 1 in
      (List.filter (fun (n, _, _) -> List.mem n e2e_metrics) metrics, correct, attempted, failed)
    end
    else trace ~size w ~seed:!seed ~seconds:!seconds
  in
  print_endline (result_json ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let () =
  try main ()
  with e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
