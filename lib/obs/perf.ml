(* ---- percentile estimation ---- *)

let quantile (h : Metrics.histogram_snapshot) q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Perf.quantile: q must be in [0, 1]";
  if h.count = 0 then nan
  else begin
    let rank = q *. float_of_int h.count in
    let n = Array.length h.upper in
    let cum = ref 0 in
    let result = ref nan in
    (try
       for i = 0 to Array.length h.counts - 1 do
         let prev = float_of_int !cum in
         cum := !cum + h.counts.(i);
         if float_of_int !cum >= rank && h.counts.(i) > 0 then begin
           if i >= n then
             (* Overflow bucket: no upper bound, report its lower bound. *)
             result := h.upper.(n - 1)
           else begin
             let lo = if i = 0 then 0. else h.upper.(i - 1) in
             let hi = h.upper.(i) in
             let frac =
               (rank -. prev) /. float_of_int h.counts.(i)
             in
             let frac = Float.max 0. (Float.min 1. frac) in
             result := lo +. (frac *. (hi -. lo))
           end;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(* ---- bench snapshots ---- *)

type gc = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_bytes : int;
  words_per_token : float;
}

type exhibit = {
  ex_name : string;
  wall_s : float;
  tokens : int;
  tokens_per_s : float;
  candidates : int;
  pruned : int;
  verify_calls : int;
  matches : int;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  a50_w : float;
  a90_w : float;
  a99_w : float;
  gc : gc option;
}

type bench = {
  schema : string;
  git_rev : string;
  scale : float;
  ocaml : string;
  exhibits : exhibit list;
}

let schema_version = "faerie-bench-v2"

let exhibit_of_snapshot ~name ~wall_s (snap : Metrics.snapshot) =
  let c n = Metrics.counter_value snap n in
  let tokens = c "tokenize_tokens" in
  let pcts hist_name =
    match List.assoc_opt hist_name snap.histograms with
    | Some h when h.count > 0 ->
        (quantile h 0.5, quantile h 0.9, quantile h 0.99)
    | _ -> (nan, nan, nan)
  in
  let p50, p90, p99 = pcts "doc_wall_ns" in
  let a50, a90, a99 = pcts "doc_alloc_words" in
  (* The gc block exists only when Prof actually captured document-level
     deltas during the exhibit (doc_alloc_words observed at least once);
     an unprofiled exhibit serializes "gc":null. *)
  let gc =
    match List.assoc_opt "doc_alloc_words" snap.histograms with
    | Some h when h.count > 0 ->
        Some
          {
            minor_words = float_of_int (c "gc_minor_words");
            promoted_words = float_of_int (c "gc_promoted_words");
            major_collections = c "gc_major_collections";
            top_heap_bytes =
              int_of_float (Metrics.gauge_value snap "gc_top_heap_bytes");
            words_per_token =
              (if tokens > 0 then h.sum /. float_of_int tokens else 0.);
          }
    | _ -> None
  in
  {
    ex_name = name;
    wall_s;
    tokens;
    tokens_per_s =
      (if wall_s > 0. then float_of_int tokens /. wall_s else 0.);
    candidates = c "candidates_generated";
    pruned = c "entities_pruned_lazy" + c "buckets_pruned";
    verify_calls = c "verify_calls";
    matches = c "matches_verified";
    p50_ns = p50;
    p90_ns = p90;
    p99_ns = p99;
    a50_w = a50;
    a90_w = a90;
    a99_w = a99;
    gc;
  }

let json_of_exhibit (e : exhibit) =
  let pcts a b c =
    Json.Obj [ ("p50", Json.Num a); ("p90", Json.Num b); ("p99", Json.Num c) ]
  in
  Json.Obj
    [
      ("name", Json.Str e.ex_name);
      ("wall_s", Json.Num e.wall_s);
      ("tokens", Json.int e.tokens);
      ("tokens_per_s", Json.Num e.tokens_per_s);
      ("candidates", Json.int e.candidates);
      ("pruned", Json.int e.pruned);
      ("verify_calls", Json.int e.verify_calls);
      ("matches", Json.int e.matches);
      ("doc_wall_ns", pcts e.p50_ns e.p90_ns e.p99_ns);
      ("alloc_per_doc", pcts e.a50_w e.a90_w e.a99_w);
      ( "gc",
        match e.gc with
        | None -> Json.Null
        | Some g ->
            Json.Obj
              [
                ("minor_words", Json.Num g.minor_words);
                ("promoted_words", Json.Num g.promoted_words);
                ("major_collections", Json.int g.major_collections);
                ("top_heap_bytes", Json.int g.top_heap_bytes);
                ("words_per_token", Json.Num g.words_per_token);
              ] );
    ]

let bench_to_json (b : bench) =
  Json.to_string ~lines:true
    (Json.Obj
       [
         ("schema", Json.Str b.schema);
         ("git_rev", Json.Str b.git_rev);
         ("scale", Json.Num b.scale);
         ("ocaml", Json.Str b.ocaml);
         ("exhibits", Json.List (List.map json_of_exhibit b.exhibits));
       ])
  ^ "\n"

let exhibit_of_json j =
  let ( let* ) = Option.bind in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* wall_s = Option.bind (Json.member "wall_s" j) Json.to_num in
  let int_field k = Option.bind (Json.member k j) Json.to_int in
  let* tokens = int_field "tokens" in
  let* tokens_per_s = Option.bind (Json.member "tokens_per_s" j) Json.to_num in
  let* candidates = int_field "candidates" in
  let* pruned = int_field "pruned" in
  let* verify_calls = int_field "verify_calls" in
  let* matches = int_field "matches" in
  let pct block k =
    match Option.bind (Json.member block j) (Json.member k) with
    | Some v -> Option.value ~default:nan (Json.to_num v)
    | None -> nan
  in
  let gc =
    match Json.member "gc" j with
    | Some (Json.Obj _ as g) ->
        let f k =
          Option.value ~default:0. (Option.bind (Json.member k g) Json.to_num)
        in
        let i k =
          Option.value ~default:0 (Option.bind (Json.member k g) Json.to_int)
        in
        Some
          {
            minor_words = f "minor_words";
            promoted_words = f "promoted_words";
            major_collections = i "major_collections";
            top_heap_bytes = i "top_heap_bytes";
            words_per_token = f "words_per_token";
          }
    | _ -> None
  in
  Some
    {
      ex_name = name;
      wall_s;
      tokens;
      tokens_per_s;
      candidates;
      pruned;
      verify_calls;
      matches;
      p50_ns = pct "doc_wall_ns" "p50";
      p90_ns = pct "doc_wall_ns" "p90";
      p99_ns = pct "doc_wall_ns" "p99";
      a50_w = pct "alloc_per_doc" "p50";
      a90_w = pct "alloc_per_doc" "p90";
      a99_w = pct "alloc_per_doc" "p99";
      gc;
    }

let bench_of_json s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok j -> (
      match Option.bind (Json.member "schema" j) Json.to_str with
      | None -> Error "missing \"schema\" field"
      | Some v when v <> schema_version ->
          Error
            (Printf.sprintf "unsupported schema %S (want %S)" v schema_version)
      | Some schema -> (
          let str_field k ~default =
            Option.value ~default (Option.bind (Json.member k j) Json.to_str)
          in
          let scale =
            Option.value ~default:1.0
              (Option.bind (Json.member "scale" j) Json.to_num)
          in
          match Option.bind (Json.member "exhibits" j) Json.to_list with
          | None -> Error "missing \"exhibits\" array"
          | Some items -> (
              let parsed = List.map exhibit_of_json items in
              if List.exists Option.is_none parsed then
                Error "malformed exhibit entry"
              else
                Ok
                  {
                    schema;
                    git_rev = str_field "git_rev" ~default:"unknown";
                    scale;
                    ocaml = str_field "ocaml" ~default:"unknown";
                    exhibits = List.filter_map Fun.id parsed;
                  })))

(* ---- regression comparison ---- *)

type verdict = {
  v_name : string;
  baseline_s : float;
  current_s : float;
  ratio : float;
  regressed : bool;
  alloc_ratio : float option;
  alloc_regressed : bool;
}

type comparison = {
  verdicts : verdict list;
  missing : string list;
  any_regressed : bool;
}

let compare_benches ?(max_ratio = 1.5) ?max_alloc_ratio ~baseline ~current () =
  let find name =
    List.find_opt (fun e -> e.ex_name = name) current.exhibits
  in
  let verdicts, missing =
    List.fold_left
      (fun (vs, ms) b ->
        match find b.ex_name with
        | None -> (vs, b.ex_name :: ms)
        | Some c ->
            let ratio =
              if b.wall_s > 0. then c.wall_s /. b.wall_s
              else if c.wall_s > 0. then infinity
              else 1.
            in
            (* Allocation gate on minor words (the bulk of allocation and
               the least noisy GC stat). A no-gc baseline cannot gate;
               a baseline with gc but a current without it means
               profiling silently went dark — fail loudly. *)
            let alloc_ratio, alloc_regressed =
              match (max_alloc_ratio, b.gc, c.gc) with
              | None, Some bg, Some cg when bg.minor_words > 0. ->
                  (Some (cg.minor_words /. bg.minor_words), false)
              | None, _, _ -> (None, false)
              | Some _, None, _ -> (None, false)
              | Some _, Some _, None -> (Some infinity, true)
              | Some r, Some bg, Some cg ->
                  let ar =
                    if bg.minor_words > 0. then cg.minor_words /. bg.minor_words
                    else if cg.minor_words > 0. then infinity
                    else 1.
                  in
                  (Some ar, ar > r)
            in
            let v =
              {
                v_name = b.ex_name;
                baseline_s = b.wall_s;
                current_s = c.wall_s;
                ratio;
                regressed = ratio > max_ratio;
                alloc_ratio;
                alloc_regressed;
              }
            in
            (v :: vs, ms))
      ([], []) baseline.exhibits
  in
  let verdicts = List.rev verdicts and missing = List.rev missing in
  {
    verdicts;
    missing;
    any_regressed =
      missing <> []
      || List.exists (fun v -> v.regressed || v.alloc_regressed) verdicts;
  }

let render_comparison ~max_ratio ?max_alloc_ratio c =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%-24s %12s %12s %8s %8s" "exhibit" "baseline_s" "current_s" "ratio"
    "alloc";
  List.iter
    (fun v ->
      let alloc =
        match v.alloc_ratio with
        | None -> "-"
        | Some r when r = infinity -> "inf"
        | Some r -> Printf.sprintf "%.2fx" r
      in
      line "%-24s %12.4f %12.4f %7.2fx %8s%s" v.v_name v.baseline_s
        v.current_s v.ratio alloc
        (if v.regressed || v.alloc_regressed then "  REGRESSED" else ""))
    c.verdicts;
  List.iter (fun name -> line "%-24s MISSING from current snapshot" name) c.missing;
  line "%s (max-ratio %.2f%s)"
    (if c.any_regressed then "REGRESSED" else "PASS")
    max_ratio
    (match max_alloc_ratio with
    | None -> ""
    | Some r -> Printf.sprintf ", max-alloc-ratio %.2f" r);
  Buffer.contents buf
