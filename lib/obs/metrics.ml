type agg = Sum | Max

type kind = Counter | Gauge of agg | Hist of float array

(* [label], when present, is the (family, key, value) triple an
   {!indexed_gauge} member exports as a labeled Prometheus series
   (family{key="value"}) instead of the name-suffixed series. Identity —
   slots, lookup, JSONL — stays on the composed [name]. *)
type def = {
  name : string;
  help : string;
  kind : kind;
  slot : int;
  label : (string * string * string) option;
}

(* One histogram cell: per-shard bucket counts plus running sum/count.
   [buckets] has one extra slot for observations above the last bound.
   [ex] holds at most one (trace, value) exemplar per bucket — the
   largest-valued traced observation seen by this shard — and stays
   [[||]] (no allocation, no scan cost) until the first traced
   observation arrives. *)
type hcell = {
  bounds : float array;
  buckets : int array;
  mutable hsum : float;
  mutable hcount : int;
  mutable ex : (int * float) array;
}

type shard = {
  mutable counters : int array;
  mutable gauges : float array;
  mutable hists : hcell array;
}

type registry = {
  lock : Mutex.t;
  mutable defs : def list; (* reverse registration order *)
  by_name : (string, def) Hashtbl.t;
  mutable n_counters : int;
  mutable n_gauges : int;
  mutable n_hists : int;
  mutable hist_bounds : float array array; (* indexed by histogram slot *)
  mutable shards : shard list;
  (* Domain-local pointer to this domain's live shard. [with_suppressed]
     swaps it to a scratch shard that is registered nowhere, so writes
     vanish without any extra branch on the hot path. *)
  shard_slot : shard option ref Domain.DLS.key;
  scratch_slot : shard option ref Domain.DLS.key;
}

type counter = { creg : registry; cslot : int }

type gauge = { greg : registry; gslot : int }

type histogram = { hreg : registry; hslot : int }

let create () =
  {
    lock = Mutex.create ();
    defs = [];
    by_name = Hashtbl.create 64;
    n_counters = 0;
    n_gauges = 0;
    n_hists = 0;
    hist_bounds = [||];
    shards = [];
    shard_slot = Domain.DLS.new_key (fun () -> ref None);
    scratch_slot = Domain.DLS.new_key (fun () -> ref None);
  }

let default = create ()

let locked reg f =
  Mutex.lock reg.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.lock) f

let new_hcell bounds =
  {
    bounds;
    buckets = Array.make (Array.length bounds + 1) 0;
    hsum = 0.;
    hcount = 0;
    ex = [||];
  }

(* Shard arrays are sized for the metrics registered at creation time and
   grown on demand when a metric registered later is first written. *)
let new_shard reg =
  {
    counters = Array.make (max 1 reg.n_counters) 0;
    gauges = Array.make (max 1 reg.n_gauges) 0.;
    hists = Array.init reg.n_hists (fun i -> new_hcell reg.hist_bounds.(i));
  }

let shard_of reg =
  let slot = Domain.DLS.get reg.shard_slot in
  match !slot with
  | Some s -> s
  | None ->
      locked reg (fun () ->
          let s = new_shard reg in
          reg.shards <- s :: reg.shards;
          slot := Some s;
          s)

let with_suppressed ?(registry = default) f =
  let slot = Domain.DLS.get registry.shard_slot in
  let saved = !slot in
  let scratch_ref = Domain.DLS.get registry.scratch_slot in
  let scratch =
    match !scratch_ref with
    | Some s -> s
    | None ->
        (* Not added to [registry.shards]: writes are never read back. *)
        let s = locked registry (fun () -> new_shard registry) in
        scratch_ref := Some s;
        s
  in
  slot := Some scratch;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* ---- registration ---- *)

let kind_name = function
  | Counter -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let register ?label reg ~name ~help kind =
  locked reg (fun () ->
      match Hashtbl.find_opt reg.by_name name with
      | Some d ->
          let compatible =
            match (d.kind, kind) with
            | Counter, Counter -> true
            | Gauge a, Gauge b -> a = b
            | Hist a, Hist b -> a = b
            | _ -> false
          in
          if not compatible then
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered as a %s" name
                 (kind_name d.kind));
          if label <> None && d.label <> label then
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered with a different label"
                 name);
          d
      | None ->
          let slot =
            match kind with
            | Counter ->
                let s = reg.n_counters in
                reg.n_counters <- s + 1;
                s
            | Gauge _ ->
                let s = reg.n_gauges in
                reg.n_gauges <- s + 1;
                s
            | Hist bounds ->
                let s = reg.n_hists in
                reg.n_hists <- s + 1;
                reg.hist_bounds <- Array.append reg.hist_bounds [| bounds |];
                s
          in
          let d = { name; help; kind; slot; label } in
          Hashtbl.add reg.by_name name d;
          reg.defs <- d :: reg.defs;
          d)

let counter ?(registry = default) ?(help = "") name =
  let d = register registry ~name ~help Counter in
  { creg = registry; cslot = d.slot }

let gauge_with_label ?(registry = default) ?(help = "") ?(agg = `Sum) ?label name =
  let agg = match agg with `Sum -> Sum | `Max -> Max in
  let d = register ?label registry ~name ~help (Gauge agg) in
  { greg = registry; gslot = d.slot }

let gauge ?registry ?help ?agg name =
  gauge_with_label ?registry ?help ?agg name

let labeled_gauge ?registry ?help ?agg ~label name =
  gauge_with_label ?registry ?help ?agg ~label name

let indexed_gauge ?registry ?help ?agg ?label name i =
  let label = Option.map (fun key -> (name, key, string_of_int i)) label in
  gauge_with_label ?registry ?help ?agg ?label (Printf.sprintf "%s_%d" name i)

let default_buckets = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let histogram ?(registry = default) ?(help = "") ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: buckets must be non-empty";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Metrics.histogram: buckets must be strictly ascending")
    buckets;
  let d = register registry ~name ~help (Hist (Array.copy buckets)) in
  { hreg = registry; hslot = d.slot }

(* ---- hot-path writes ---- *)

let grow_counters reg sh =
  locked reg (fun () ->
      let n = Array.length sh.counters in
      if reg.n_counters > n then begin
        let a = Array.make reg.n_counters 0 in
        Array.blit sh.counters 0 a 0 n;
        sh.counters <- a
      end)

let grow_gauges reg sh =
  locked reg (fun () ->
      let n = Array.length sh.gauges in
      if reg.n_gauges > n then begin
        let a = Array.make reg.n_gauges 0. in
        Array.blit sh.gauges 0 a 0 n;
        sh.gauges <- a
      end)

let grow_hists reg sh =
  locked reg (fun () ->
      let n = Array.length sh.hists in
      if reg.n_hists > n then begin
        let a =
          Array.init reg.n_hists (fun i ->
              if i < n then sh.hists.(i) else new_hcell reg.hist_bounds.(i))
        in
        sh.hists <- a
      end)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  if n > 0 then begin
    let sh = shard_of c.creg in
    if c.cslot >= Array.length sh.counters then grow_counters c.creg sh;
    sh.counters.(c.cslot) <- sh.counters.(c.cslot) + n
  end

let incr c = add c 1

let set g v =
  let sh = shard_of g.greg in
  if g.gslot >= Array.length sh.gauges then grow_gauges g.greg sh;
  sh.gauges.(g.gslot) <- v

let add_gauge g v =
  let sh = shard_of g.greg in
  if g.gslot >= Array.length sh.gauges then grow_gauges g.greg sh;
  sh.gauges.(g.gslot) <- sh.gauges.(g.gslot) +. v

(* Raise this domain's cell to at least [v]. Together with [`Max] merge
   semantics this yields a process-wide high-water mark. *)
let set_max g v =
  let sh = shard_of g.greg in
  if g.gslot >= Array.length sh.gauges then grow_gauges g.greg sh;
  if v > sh.gauges.(g.gslot) then sh.gauges.(g.gslot) <- v

let observe h v =
  let sh = shard_of h.hreg in
  if h.hslot >= Array.length sh.hists then grow_hists h.hreg sh;
  let cell = sh.hists.(h.hslot) in
  let n = Array.length cell.bounds in
  (* First bucket whose upper bound admits [v]; the extra last cell is the
     overflow bucket. Bucket counts are few (fixed layout) — linear scan. *)
  let i = ref 0 in
  while !i < n && v > cell.bounds.(!i) do
    i := !i + 1
  done;
  cell.buckets.(!i) <- cell.buckets.(!i) + 1;
  cell.hsum <- cell.hsum +. v;
  cell.hcount <- cell.hcount + 1

(* Traced variant: additionally retain [v] as the bucket's exemplar when
   it beats the incumbent. Ties break toward the larger trace id so the
   choice is deterministic regardless of observation order (the same
   rule {!merge_snapshots} applies across shards). A separate function —
   not an optional argument — so the untraced hot path stays
   allocation-free. *)
let observe_ex h v ~trace =
  let sh = shard_of h.hreg in
  if h.hslot >= Array.length sh.hists then grow_hists h.hreg sh;
  let cell = sh.hists.(h.hslot) in
  let n = Array.length cell.bounds in
  let i = ref 0 in
  while !i < n && v > cell.bounds.(!i) do
    i := !i + 1
  done;
  cell.buckets.(!i) <- cell.buckets.(!i) + 1;
  cell.hsum <- cell.hsum +. v;
  cell.hcount <- cell.hcount + 1;
  if trace <> 0 then begin
    if Array.length cell.ex = 0 then cell.ex <- Array.make (n + 1) (0, 0.);
    let t0, v0 = cell.ex.(!i) in
    if t0 = 0 || v > v0 || (v = v0 && trace > t0) then
      cell.ex.(!i) <- (trace, v)
  end

(* ---- snapshot / export ---- *)

type histogram_snapshot = {
  upper : float array;
  counts : int array;
  sum : float;
  count : int;
  exemplars : (int * float) array;
      (* per-bucket (trace, value); [[||]] when no traced observation *)
}

(* Exemplar merge: per bucket, keep the larger value; break value ties
   toward the larger trace id. Commutative and associative, so merged
   snapshots are invariant under permutation/re-association of inputs
   (the qcheck law in test_obs covers this field too). *)
let merge_ex a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else if Array.length a <> Array.length b then a
  else
    Array.mapi
      (fun i ((t0, v0) as e0) ->
        let (t1, v1) as e1 = b.(i) in
        if t0 = 0 then e1
        else if t1 = 0 then e0
        else if v1 > v0 || (v1 = v0 && t1 > t0) then e1
        else e0)
      a

(* Gauge entries carry their merge mode and label metadata so snapshots are
   self-describing: a coordinator merging snapshots pulled from shard
   processes needs the [agg] (it has no access to the shard's registry
   defs), and the Prometheus renderer needs the label triple. *)
type gauge_snapshot = {
  value : float;
  agg : [ `Sum | `Max ];
  label : (string * string * string) option;  (** (family, key, value) *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * gauge_snapshot) list;
  histograms : (string * histogram_snapshot) list;
}

(* Reads of other domains' shard cells are plain (non-atomic) loads of
   immediate values: never torn, possibly a few increments stale — fine for
   monitoring, and tests snapshot only quiescent registries. *)
let snapshot ?(registry = default) () =
  locked registry (fun () ->
      let defs = List.rev registry.defs in
      let shards = registry.shards in
      let counters = ref [] and gauges = ref [] and histograms = ref [] in
      List.iter
        (fun d ->
          match d.kind with
          | Counter ->
              let v =
                List.fold_left
                  (fun acc (sh : shard) ->
                    if d.slot < Array.length sh.counters then
                      acc + sh.counters.(d.slot)
                    else acc)
                  0 shards
              in
              counters := (d.name, v) :: !counters
          | Gauge agg ->
              let combine =
                match agg with Sum -> ( +. ) | Max -> Float.max
              in
              let v =
                List.fold_left
                  (fun acc (sh : shard) ->
                    if d.slot < Array.length sh.gauges then
                      combine acc sh.gauges.(d.slot)
                    else acc)
                  0. shards
              in
              let agg = match agg with Sum -> `Sum | Max -> `Max in
              gauges := (d.name, { value = v; agg; label = d.label }) :: !gauges
          | Hist bounds ->
              let counts = Array.make (Array.length bounds + 1) 0 in
              let sum = ref 0. and count = ref 0 in
              let ex = ref [||] in
              List.iter
                (fun (sh : shard) ->
                  if d.slot < Array.length sh.hists then begin
                    let cell = sh.hists.(d.slot) in
                    Array.iteri
                      (fun i c -> counts.(i) <- counts.(i) + c)
                      cell.buckets;
                    sum := !sum +. cell.hsum;
                    count := !count + cell.hcount;
                    (* copy: the cell stays live under observe_ex *)
                    ex := merge_ex !ex (Array.copy cell.ex)
                  end)
                shards;
              histograms :=
                (d.name,
                 {
                   upper = bounds;
                   counts;
                   sum = !sum;
                   count = !count;
                   exemplars = !ex;
                 })
                :: !histograms)
        defs;
      {
        counters = List.rev !counters;
        gauges = List.rev !gauges;
        histograms = List.rev !histograms;
      })

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let gauge_value snap name =
  match List.assoc_opt name snap.gauges with Some g -> g.value | None -> 0.

(* Cross-snapshot merge: the same semantics {!snapshot} applies to
   per-domain shards, one level up — counters and matching histogram cells
   sum, gauges combine by their recorded [agg]. Output is sorted by name,
   so merging any permutation of the same snapshots yields an identical
   result (registration order is meaningless across processes). Histograms
   whose bucket layouts disagree keep the first-seen cells: layouts only
   diverge across binaries, where summing cells would be meaningless. *)
let merge_snapshots snaps =
  let by_name fold lists =
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun entries ->
        List.iter
          (fun (name, v) ->
            match Hashtbl.find_opt tbl name with
            | None ->
                Hashtbl.add tbl name v;
                order := name :: !order
            | Some v0 -> Hashtbl.replace tbl name (fold v0 v))
          entries)
      lists;
    List.sort compare !order
    |> List.map (fun name -> (name, Hashtbl.find tbl name))
  in
  {
    counters = by_name (fun a b -> a + b) (List.map (fun s -> s.counters) snaps);
    gauges =
      by_name
        (fun g0 g ->
          let value =
            match g0.agg with
            | `Sum -> g0.value +. g.value
            | `Max -> Float.max g0.value g.value
          in
          { g0 with value })
        (List.map (fun s -> s.gauges) snaps);
    histograms =
      by_name
        (fun h0 h ->
          if h0.upper <> h.upper then h0
          else
            {
              upper = h0.upper;
              counts = Array.mapi (fun i c -> c + h.counts.(i)) h0.counts;
              sum = h0.sum +. h.sum;
              count = h0.count + h.count;
              exemplars = merge_ex h0.exemplars h.exemplars;
            })
        (List.map (fun s -> s.histograms) snaps);
  }

let reset ?(registry = default) () =
  locked registry (fun () ->
      List.iter
        (fun (sh : shard) ->
          Array.fill sh.counters 0 (Array.length sh.counters) 0;
          Array.fill sh.gauges 0 (Array.length sh.gauges) 0.;
          Array.iter
            (fun cell ->
              Array.fill cell.buckets 0 (Array.length cell.buckets) 0;
              cell.hsum <- 0.;
              cell.hcount <- 0;
              cell.ex <- [||])
            sh.hists)
        registry.shards)

(* ---- JSON ---- *)

(* upper, counts, sum, count: the body all three JSON forms of a
   histogram share. *)
let hist_body h =
  [
    ( "upper",
      Json.List (Array.to_list (Array.map (fun f -> Json.Num f) h.upper)) );
    ("counts", Json.List (Array.to_list (Array.map Json.int h.counts)));
    ("sum", Json.Num h.sum);
    ("count", Json.int h.count);
  ]

(* The readable exemplar list: one cell per bucket that holds one
   (jq: .histograms.doc_wall_ns.exemplars[] links a bucket to the trace
   id of its slowest observation), absent when none does, so untraced
   histograms keep the locked schema. *)
let exemplars_field h =
  let cells = ref [] in
  Array.iteri
    (fun i (t, v) ->
      if t <> 0 then
        cells :=
          Json.Obj
            [ ("i", Json.int i); ("trace", Json.int t); ("value", Json.Num v) ]
          :: !cells)
    h.exemplars;
  match List.rev !cells with
  | [] -> []
  | cells -> [ ("exemplars", Json.List cells) ]

let counters_json snap =
  Json.Obj (List.map (fun (n, v) -> (n, Json.int v)) snap.counters)

let render_jsonl snap =
  let line typ (name, rest) =
    Json.Obj (("type", Json.Str typ) :: ("name", Json.Str name) :: rest)
  in
  Json.to_lines
    (List.map (fun (n, v) -> line "counter" (n, [ ("value", Json.int v) ]))
       snap.counters
    @ List.map (fun (n, g) -> line "gauge" (n, [ ("value", Json.Num g.value) ]))
        snap.gauges
    @ List.map
        (fun (n, h) -> line "histogram" (n, hist_body h @ exemplars_field h))
        snap.histograms)

let snapshot_json snap =
  let hist (n, h) = (n, Json.Obj (hist_body h @ exemplars_field h)) in
  Json.Obj
    [
      ("counters", counters_json snap);
      ( "gauges",
        Json.Obj (List.map (fun (n, g) -> (n, Json.Num g.value)) snap.gauges) );
      ("histograms", Json.Obj (List.map hist snap.histograms));
    ]

(* The wire form keeps what merging needs: a gauge's agg mode and label,
   and every exemplar cell as a [trace, value] pair ("ex", absent when
   the histogram never saw a traced observation). *)
let snapshot_to_wire snap =
  let gauge (n, g) =
    ( n,
      Json.Obj
        ([
           ("v", Json.Num g.value);
           ("agg", Json.Str (match g.agg with `Sum -> "sum" | `Max -> "max"));
         ]
        @
        match g.label with
        | None -> []
        | Some (family, key, value) ->
            [
              ( "label",
                Json.List [ Json.Str family; Json.Str key; Json.Str value ] );
            ]) )
  in
  let hist (n, h) =
    ( n,
      Json.Obj
        (hist_body h
        @
        match h.exemplars with
        | [||] -> []
        | ex ->
            let cell (t, v) = Json.List [ Json.int t; Json.Num v ] in
            [ ("ex", Json.List (Array.to_list (Array.map cell ex))) ]) )
  in
  Json.Obj
    [
      ("counters", counters_json snap);
      ("gauges", Json.Obj (List.map gauge snap.gauges));
      ("histograms", Json.Obj (List.map hist snap.histograms));
    ]

let snapshot_of_wire j =
  let ( let* ) = Option.bind in
  let field name conv obj = Option.bind (Json.member name obj) conv in
  let gauge gj =
    let* value = field "v" Json.to_num gj in
    let* agg =
      match field "agg" Json.to_str gj with
      | Some "sum" -> Some `Sum
      | Some "max" -> Some `Max
      | _ -> None
    in
    let* label =
      match Json.member "label" gj with
      | None -> Some None
      | Some (Json.List [ Json.Str f; Json.Str k; Json.Str v ]) ->
          Some (Some (f, k, v))
      | Some _ -> None
    in
    Some { value; agg; label }
  in
  let hist hj =
    let* upper = field "upper" (Json.list_of Json.to_num) hj in
    let* counts = field "counts" (Json.list_of Json.to_int) hj in
    let* sum = field "sum" Json.to_num hj in
    let* count = field "count" Json.to_int hj in
    let cell = function
      | Json.List [ t; v ] -> (
          match (Json.to_int t, Json.to_num v) with
          | Some t, Some v -> Some (t, v)
          | _ -> None)
      | _ -> None
    in
    let* exemplars =
      match Json.member "ex" hj with
      | None -> Some []
      | Some ex -> Json.list_of cell ex
    in
    Some
      {
        upper = Array.of_list upper;
        counts = Array.of_list counts;
        sum;
        count;
        exemplars = Array.of_list exemplars;
      }
  in
  let* counters = field "counters" (Json.fields_of Json.to_int) j in
  let* gauges = field "gauges" (Json.fields_of gauge) j in
  let* histograms = field "histograms" (Json.fields_of hist) j in
  Some { counters; gauges; histograms }

let to_jsonl ?(registry = default) () = render_jsonl (snapshot ~registry ())

(* Prometheus exposition format escaping for HELP text: only backslash and
   line feed are escaped (the format is line-oriented; quotes are legal in
   HELP). *)
let prom_escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Label values additionally escape double quotes (they are quoted in the
   exposition format, unlike HELP text). *)
let prom_escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_prometheus ?(registry = default) snap =
  let help_of =
    locked registry (fun () ->
        let tbl = Hashtbl.create 32 in
        List.iter (fun d -> Hashtbl.replace tbl d.name d.help) registry.defs;
        tbl)
  in
  let buf = Buffer.create 1024 in
  let header ?(help_name = "") name typ =
    let help_name = if help_name = "" then name else help_name in
    (match Hashtbl.find_opt help_of help_name with
    | Some h when h <> "" ->
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" name (prom_escape_help h))
    | _ -> ());
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun (name, v) ->
      header name "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
    snap.counters;
  (* Labeled gauges render as one family (shard_up{shard="3"}) rather than
     name-suffixed series; the family header is emitted once, ahead of the
     first member. *)
  let family_headered = Hashtbl.create 8 in
  List.iter
    (fun (name, g) ->
      match g.label with
      | None ->
          header name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (Json.float_text g.value))
      | Some (family, key, value) ->
          if not (Hashtbl.mem family_headered family) then begin
            Hashtbl.add family_headered family ();
            header ~help_name:name family "gauge"
          end;
          Buffer.add_string buf
            (Printf.sprintf "%s{%s=\"%s\"} %s\n" family key
               (prom_escape_label value) (Json.float_text g.value)))
    snap.gauges;
  List.iter
    (fun (name, h) ->
      header name "histogram";
      (* OpenMetrics exemplar suffix: `... # {trace_id="T"} V` after the
         bucket's cumulative count. The exemplar belongs to the bucket
         (non-cumulative) even though the count is cumulative. *)
      let exemplar i =
        if i < Array.length h.exemplars then
          match h.exemplars.(i) with
          | 0, _ -> ""
          | t, v ->
              Printf.sprintf " # {trace_id=\"%d\"} %s" t (Json.float_text v)
        else ""
      in
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d%s\n" name
               (Json.float_text h.upper.(i)) !cum (exemplar i)))
        (Array.sub h.counts 0 (Array.length h.upper));
      cum := !cum + h.counts.(Array.length h.upper);
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d%s\n" name !cum
           (exemplar (Array.length h.upper)));
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" name (Json.float_text h.sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.count))
    snap.histograms;
  Buffer.contents buf

let to_prometheus ?(registry = default) () =
  render_prometheus ~registry (snapshot ~registry ())
