(* Service-level objectives over merged metric snapshots.

   An objective is declared on the serve command line
   ([--slo p99=50ms,avail=99.9]) and assessed over sliding windows: each
   assessment takes the delta between the current merged snapshot and
   the previous assessment's snapshot, so attainment and burn rate
   describe the interval since the last stats tick, not the whole run.

   Burn-rate math (the standard error-budget form): an objective admits
   a bad-event budget of [1 - target] per unit of traffic; the burn rate
   is the observed bad fraction divided by that budget. Burn 1.0 means
   the budget is being consumed exactly at the sustainable rate; above
   1.0 the objective will be violated if the window's behaviour
   persists. Latency treats a request over the threshold as a bad event
   (budget [1 - q] for a [q]-quantile objective); availability treats a
   failed or shed document as one (budget [1 - avail_target]). *)

type objective = {
  latency : (float * float) option;  (* (quantile q in (0,1), threshold ns) *)
  avail : float option;  (* target fraction in (0,1) *)
}

let none = { latency = None; avail = None }

let is_empty o = o.latency = None && o.avail = None

(* ---- parsing ---- *)

let parse_duration_ms s =
  let num, unit_ =
    let n = String.length s in
    let rec split i =
      if i < n && (s.[i] = '.' || (s.[i] >= '0' && s.[i] <= '9')) then
        split (i + 1)
      else i
    in
    let k = split 0 in
    (String.sub s 0 k, String.sub s k (n - k))
  in
  match float_of_string_opt num with
  | None -> None
  | Some v -> (
      match String.lowercase_ascii unit_ with
      | "" | "ms" -> Some v
      | "s" -> Some (v *. 1e3)
      | "us" -> Some (v /. 1e3)
      | "ns" -> Some (v /. 1e6)
      | _ -> None)

let parse spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> if is_empty acc then Error "empty --slo spec" else Ok acc
    | item :: rest -> (
        match String.index_opt item '=' with
        | None -> Error (Printf.sprintf "bad SLO item %S (want key=value)" item)
        | Some eq -> (
            let k = String.lowercase_ascii (String.sub item 0 eq) in
            let v = String.sub item (eq + 1) (String.length item - eq - 1) in
            match k with
            | "avail" -> (
                match float_of_string_opt v with
                | Some p when p > 1. && p < 100. ->
                    go { acc with avail = Some (p /. 100.) } rest
                | Some p when p > 0. && p < 1. ->
                    go { acc with avail = Some p } rest
                | _ ->
                    Error
                      (Printf.sprintf
                         "bad availability target %S (want a percentage like \
                          99.9 or a fraction like 0.999)"
                         v))
            | _ when String.length k > 1 && k.[0] = 'p' -> (
                match
                  ( float_of_string_opt (String.sub k 1 (String.length k - 1)),
                    parse_duration_ms v )
                with
                | Some pq, Some ms when pq > 0. && pq < 100. && ms > 0. ->
                    go { acc with latency = Some (pq /. 100., ms *. 1e6) } rest
                | _, None ->
                    Error
                      (Printf.sprintf
                         "bad latency threshold %S (want e.g. 50ms, 2s)" v)
                | _ ->
                    Error
                      (Printf.sprintf "bad latency quantile %S (want p50..p99.9)"
                         k))
            | _ ->
                Error
                  (Printf.sprintf "unknown SLO key %S (want pNN=DURms, avail=PCT)"
                     k)))
  in
  go none items

let to_string o =
  String.concat ","
    ((match o.latency with
     | Some (q, ns) ->
         [ Printf.sprintf "p%g=%gms" (q *. 100.) (ns /. 1e6) ]
     | None -> [])
    @
    match o.avail with
    | Some a -> [ Printf.sprintf "avail=%g" (a *. 100.) ]
    | None -> [])

(* ---- assessment ---- *)

type assessment = {
  window_s : float;  (* wall span of the assessed window *)
  docs : int;  (* documents in the window (processed + shed) *)
  latency_q : float option;  (* objective quantile *)
  latency_target_ms : float option;
  latency_measured_ms : float option;  (* measured quantile; None if no docs *)
  latency_bad_frac : float option;  (* fraction over threshold *)
  burn_latency : float option;
  avail_target : float option;
  avail_measured : float option;
  burn_avail : float option;
  burning : bool;
}

(* Fraction of a histogram's observations at or below [x], interpolating
   linearly inside the bucket that contains [x] (the dual of
   Perf.quantile's rank interpolation). The overflow bucket counts
   entirely above any finite [x] beyond the last bound. *)
let fraction_le (h : Metrics.histogram_snapshot) x =
  if h.count = 0 then nan
  else begin
    let total = float_of_int h.count in
    let below = ref 0. in
    let n = Array.length h.upper in
    (try
       for i = 0 to n - 1 do
         let lo = if i = 0 then 0. else h.upper.(i - 1) in
         let hi = h.upper.(i) in
         let c = float_of_int h.counts.(i) in
         if x >= hi then below := !below +. c
         else begin
           if x > lo && hi > lo then
             below := !below +. (c *. ((x -. lo) /. (hi -. lo)));
           raise Exit
         end
       done
     with Exit -> ());
    Float.min 1. (!below /. total)
  end

(* Delta of [cur] against [prev] for the metrics the SLO math reads.
   Counters and histogram cells are monotonic, so the piecewise
   subtraction is safe; a shrinking value (shard restarted and re-counted
   from zero) clamps to the current reading. *)
let delta_counter prev cur name =
  let d = Metrics.counter_value cur name - Metrics.counter_value prev name in
  if d >= 0 then d else Metrics.counter_value cur name

let delta_hist (prev : Metrics.snapshot) (cur : Metrics.snapshot) name =
  match List.assoc_opt name cur.Metrics.histograms with
  | None -> None
  | Some h -> (
      match List.assoc_opt name prev.Metrics.histograms with
      | Some p
        when p.Metrics.upper = h.Metrics.upper
             && h.Metrics.count >= p.Metrics.count ->
          Some
            {
              h with
              Metrics.counts =
                Array.mapi (fun i c -> c - p.Metrics.counts.(i)) h.Metrics.counts;
              sum = h.Metrics.sum -. p.Metrics.sum;
              count = h.Metrics.count - p.Metrics.count;
            }
      | _ -> Some h)

type tracker = {
  mutable prev : Metrics.snapshot option;
  mutable prev_t : float option;
}

let tracker () = { prev = None; prev_t = None }

let empty_snapshot =
  { Metrics.counters = []; gauges = []; histograms = [] }

let assess ?now_s t objective (snap : Metrics.snapshot) =
  let now = match now_s with Some n -> n | None -> Unix.gettimeofday () in
  let prev = Option.value t.prev ~default:empty_snapshot in
  let window_s =
    match t.prev_t with Some p when now > p -> now -. p | _ -> 0.
  in
  t.prev <- Some snap;
  t.prev_t <- Some now;
  let processed = delta_counter prev snap "docs_processed" in
  let shed = delta_counter prev snap "docs_shed" in
  let failed = delta_counter prev snap "docs_failed" in
  let docs = processed + shed in
  let wall = delta_hist prev snap "doc_wall_ns" in
  let latency_q, latency_target_ms, latency_measured_ms, latency_bad_frac,
      burn_latency =
    match objective.latency with
    | None -> (None, None, None, None, None)
    | Some (q, thr_ns) -> (
        let target_ms = Some (thr_ns /. 1e6) in
        match wall with
        | Some h when h.Metrics.count > 0 ->
            let measured = Perf.quantile h q in
            let ok_frac = fraction_le h thr_ns in
            let bad = 1. -. ok_frac in
            let budget = 1. -. q in
            let burn = if budget > 0. then bad /. budget else infinity in
            ( Some q,
              target_ms,
              (if Float.is_nan measured then None else Some (measured /. 1e6)),
              Some bad,
              Some burn )
        | _ -> (Some q, target_ms, None, None, None))
  in
  let avail_target, avail_measured, burn_avail =
    match objective.avail with
    | None -> (None, None, None)
    | Some target ->
        if docs = 0 then (Some target, None, None)
        else begin
          let bad = float_of_int (failed + shed) /. float_of_int docs in
          let measured = 1. -. bad in
          let budget = 1. -. target in
          let burn = if budget > 0. then bad /. budget else infinity in
          (Some target, Some measured, Some burn)
        end
  in
  let burning =
    let over = function Some b -> b > 1. | None -> false in
    over burn_latency || over burn_avail
  in
  {
    window_s;
    docs;
    latency_q;
    latency_target_ms;
    latency_measured_ms;
    latency_bad_frac;
    burn_latency;
    avail_target;
    avail_measured;
    burn_avail;
    burning;
  }

(* ---- rendering ---- *)

let to_json a =
  let opt = function Some v -> Json.Num v | None -> Json.Null in
  Json.Obj
    [
      ("window_s", Json.Num a.window_s);
      ("docs", Json.int a.docs);
      ( "latency",
        Json.Obj
          [
            ("q", opt a.latency_q);
            ("target_ms", opt a.latency_target_ms);
            ("measured_ms", opt a.latency_measured_ms);
            ("bad_frac", opt a.latency_bad_frac);
            ("burn", opt a.burn_latency);
          ] );
      ( "avail",
        Json.Obj
          [
            ("target", opt a.avail_target);
            ("measured", opt a.avail_measured);
            ("burn", opt a.burn_avail);
          ] );
      ("burning", Json.Bool a.burning);
    ]

let render a =
  let parts = ref [] in
  (match (a.latency_q, a.latency_measured_ms, a.latency_target_ms) with
  | Some q, Some m, Some t ->
      parts :=
        Printf.sprintf "p%g %.2fms (target %gms, burn %s)" (q *. 100.) m t
          (match a.burn_latency with
          | Some b -> Printf.sprintf "%.2f" b
          | None -> "-")
        :: !parts
  | Some q, None, Some t ->
      parts := Printf.sprintf "p%g - (target %gms)" (q *. 100.) t :: !parts
  | _ -> ());
  (match (a.avail_target, a.avail_measured) with
  | Some t, Some m ->
      parts :=
        Printf.sprintf "avail %.4f%% (target %g%%, burn %s)" (m *. 100.)
          (t *. 100.)
          (match a.burn_avail with
          | Some b -> Printf.sprintf "%.2f" b
          | None -> "-")
        :: !parts
  | Some t, None ->
      parts := Printf.sprintf "avail - (target %g%%)" (t *. 100.) :: !parts
  | _ -> ());
  let status = if a.burning then "BURNING" else "ok" in
  Printf.sprintf "slo %s: %s" status (String.concat ", " (List.rev !parts))
