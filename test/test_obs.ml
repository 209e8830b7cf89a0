(* Observability tests: metrics registry vs. pipeline statistics, shard
   merging across domains, trace span nesting under injected faults, and
   the exported JSON schemas (locked with a deterministic clock). *)

module Metrics = Faerie_obs.Metrics
module Trace = Faerie_obs.Trace
module Explain = Faerie_obs.Explain
module Perf = Faerie_obs.Perf
module Json = Faerie_obs.Json
module Fault = Faerie_util.Fault
module Sim = Faerie_sim.Sim
module Core = Faerie_core
module Types = Core.Types
module Problem = Core.Problem
module Single_heap = Core.Single_heap
module Extractor = Core.Extractor
module Parallel = Core.Parallel
module Outcome = Core.Outcome

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let paper_dict =
  [ "kaushik ch"; "chakrabarti"; "chaudhuri"; "venkatesh"; "surajit ch" ]

let paper_doc =
  "an efficient filter for approximate membership checking. venkaee shga \
   kamunshik kabarati, dong xin, surauijt chadhurisigmod."

(* ------------------------------------------------------------------ *)
(* (a) registry counters agree with Types.stats at every pruning level *)
(* ------------------------------------------------------------------ *)

let counter_name_of_level = function
  | Types.No_prune -> "candidates_generated_none"
  | Types.Lazy_count -> "candidates_generated_lazy"
  | Types.Bucket_count -> "candidates_generated_bucket"
  | Types.Binary_window -> "candidates_generated_binary"

let test_counters_match_stats () =
  let problem = Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let doc = Problem.tokenize_document problem paper_doc in
  List.iter
    (fun pruning ->
      Metrics.reset ();
      let r = Single_heap.run_budgeted ~pruning problem doc in
      let stats = r.Single_heap.stats in
      let snap = Metrics.snapshot () in
      let level = Types.pruning_name pruning in
      let eq name v = check_int (level ^ ": " ^ name) v (Metrics.counter_value snap name) in
      eq "candidates_generated" stats.Types.candidates;
      eq (counter_name_of_level pruning) stats.Types.candidates;
      eq "entities_seen" stats.Types.entities_seen;
      eq "entities_pruned_lazy" stats.Types.entities_pruned_lazy;
      eq "buckets_pruned" stats.Types.buckets_pruned;
      eq "filter_survivors" stats.Types.survivors;
      (* Every surviving candidate is verified exactly once on the indexed
         path, so the verify-call counter equals the survivor count. *)
      eq "verify_calls" stats.Types.survivors;
      eq "matches_verified" stats.Types.verified)
    Types.all_prunings

let test_metrics_suppressed_run () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  Metrics.reset ();
  let opts = { Extractor.default_opts with Extractor.metrics = false } in
  let report = Extractor.run ~opts ex (`Text paper_doc) in
  check_bool "run succeeded" true (Outcome.is_ok report.Extractor.outcome);
  check_bool "stats still populated" true (report.Extractor.stats.Types.candidates > 0);
  let snap = Metrics.snapshot () in
  check_int "no candidates recorded" 0 (Metrics.counter_value snap "candidates_generated");
  check_int "no docs recorded" 0 (Metrics.counter_value snap "docs_processed");
  (* Suppression is per-run, not sticky. *)
  let report2 = Extractor.run ex (`Text paper_doc) in
  check_bool "second run ok" true (Outcome.is_ok report2.Extractor.outcome);
  let snap2 = Metrics.snapshot () in
  check_int "second run recorded" 1 (Metrics.counter_value snap2 "docs_processed")

(* ------------------------------------------------------------------ *)
(* (b) histogram bucket totals equal observation counts                *)
(* ------------------------------------------------------------------ *)

let test_histogram_totals () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.; 2.; 5. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.; 1.5; 2.; 4.9; 5.; 100.; 1000. ];
  let snap = Metrics.snapshot ~registry:reg () in
  match snap.Metrics.histograms with
  | [ ("h", hs) ] ->
      check_int "count" 8 hs.Metrics.count;
      check_int "cells" 4 (Array.length hs.Metrics.counts);
      check_int "bucket totals = count" hs.Metrics.count
        (Array.fold_left ( + ) 0 hs.Metrics.counts);
      Alcotest.(check (array int)) "per-cell" [| 2; 2; 2; 2 |] hs.Metrics.counts;
      Alcotest.(check (float 1e-9)) "sum" 1114.9 hs.Metrics.sum
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_pipeline_histogram_totals () =
  Metrics.reset ();
  let ex = Extractor.create ~sim:(Sim.Jaccard 0.8) paper_dict in
  let _ = Extractor.run ex (`Text paper_doc) in
  let snap = Metrics.snapshot () in
  check_bool "has histograms" true (snap.Metrics.histograms <> []);
  List.iter
    (fun (name, hs) ->
      check_int
        (name ^ ": bucket totals = count")
        hs.Metrics.count
        (Array.fold_left ( + ) 0 hs.Metrics.counts))
    snap.Metrics.histograms

(* ------------------------------------------------------------------ *)
(* (c) spans nest and close correctly under an injected fault          *)
(* ------------------------------------------------------------------ *)

let with_deterministic_clock f =
  let t = ref 0L in
  Trace.set_clock (Some (fun () -> t := Int64.add !t 10L; !t));
  Trace.enable ();
  ignore (Trace.drain ());
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.set_clock None;
      ignore (Trace.drain ()))
    f

let test_spans_nest_under_fault () =
  with_deterministic_clock @@ fun () ->
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  ignore (Trace.drain ());
  Fault.configure { Fault.seed = 1; rates = [ ("heap_merge", 1.0) ] };
  let report =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Extractor.run ex (`Text paper_doc))
  in
  (match report.Extractor.outcome with
  | Outcome.Failed (Outcome.Injected_fault "heap_merge") -> ()
  | _ -> Alcotest.fail "expected Failed (Injected_fault heap_merge)");
  let spans = Trace.drain () in
  let find name =
    match List.find_opt (fun s -> s.Trace.name = name) spans with
    | Some s -> s
    | None -> Alcotest.fail ("missing span " ^ name)
  in
  let root = find "extract_doc" in
  let tokenize = find "tokenize" in
  let filter = find "filter" in
  (* The fault fires at the heap_merge site before the merge span opens, so
     the filter span is the innermost one crossed by the exception. *)
  check_int "root depth" 0 root.Trace.depth;
  check_int "tokenize depth" 1 tokenize.Trace.depth;
  check_int "filter depth" 1 filter.Trace.depth;
  check_bool "root closed ok (fault contained inside)" true root.Trace.ok;
  check_bool "tokenize ok" true tokenize.Trace.ok;
  check_bool "filter closed by exception" false filter.Trace.ok;
  let inside inner outer =
    inner.Trace.start_ns >= outer.Trace.start_ns
    && Int64.add inner.Trace.start_ns inner.Trace.dur_ns
       <= Int64.add outer.Trace.start_ns outer.Trace.dur_ns
  in
  check_bool "tokenize inside root" true (inside tokenize root);
  check_bool "filter inside root" true (inside filter root);
  check_bool "every span closed (drain empty)" true (Trace.drain () = [])

(* ------------------------------------------------------------------ *)
(* (d) multi-domain shard merge loses no counts                        *)
(* ------------------------------------------------------------------ *)

let test_parallel_shard_merge () =
  let problem = Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let docs =
    Array.init 12 (fun i ->
        if i mod 3 = 0 then paper_doc
        else if i mod 3 = 1 then "surauijt chadhuri and venkatesh"
        else "no entities here at all")
  in
  let tracked =
    [
      "docs_processed"; "docs_ok"; "tokenize_calls"; "tokenize_tokens";
      "heap_pops"; "heap_merge_runs"; "candidates_generated"; "verify_calls";
      "filter_survivors"; "matches_verified"; "entities_seen";
    ]
  in
  let totals domains =
    Metrics.reset ();
    let outcomes, summary =
      Parallel.extract_all_outcomes ~domains problem docs
    in
    check_int "all docs processed" 12 (Array.length outcomes);
    check_int "all ok" 12 summary.Outcome.n_ok;
    let snap = Metrics.snapshot () in
    List.map (fun name -> (name, Metrics.counter_value snap name)) tracked
  in
  let sequential = totals 1 in
  let parallel = totals 4 in
  List.iter2
    (fun (name, a) (name', b) ->
      check_string "same counter" name name';
      check_int ("4-domain total matches sequential: " ^ name) a b)
    sequential parallel;
  check_int "docs_processed"
    (List.assoc "docs_processed" parallel)
    (Array.length docs)

(* ------------------------------------------------------------------ *)
(* Exported JSON schemas (locked)                                      *)
(* ------------------------------------------------------------------ *)

let test_metrics_jsonl_schema () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg ~help:"a counter" "alpha" in
  let g = Metrics.gauge ~registry:reg "beta" in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.; 2. |] "gamma" in
  Metrics.add c 3;
  Metrics.set g 1.5;
  Metrics.observe h 0.5;
  Metrics.observe h 3.;
  check_string "jsonl schema"
    ("{\"type\":\"counter\",\"name\":\"alpha\",\"value\":3}\n"
   ^ "{\"type\":\"gauge\",\"name\":\"beta\",\"value\":1.5}\n"
   ^ "{\"type\":\"histogram\",\"name\":\"gamma\",\"upper\":[1,2],\"counts\":[1,0,1],\"sum\":3.5,\"count\":2}\n"
    )
    (Metrics.to_jsonl ~registry:reg ())

let test_prometheus_schema () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg ~help:"a counter" "alpha" in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.; 2. |] "gamma" in
  Metrics.add c 3;
  Metrics.observe h 0.5;
  Metrics.observe h 3.;
  check_string "prometheus schema"
    ("# HELP alpha a counter\n# TYPE alpha counter\nalpha 3\n"
   ^ "# TYPE gamma histogram\n"
   ^ "gamma_bucket{le=\"1\"} 1\ngamma_bucket{le=\"2\"} 1\n"
   ^ "gamma_bucket{le=\"+Inf\"} 2\ngamma_sum 3.5\ngamma_count 2\n")
    (Metrics.to_prometheus ~registry:reg ())

let test_trace_jsonl_schema () =
  with_deterministic_clock @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span ~attrs:[ ("k", "v\"w") ] "inner" (fun () -> ()));
  let spans = Trace.drain () in
  let domain = (Domain.self () :> int) in
  check_string "trace jsonl schema"
    (Printf.sprintf
       "{\"name\":\"outer\",\"start_ns\":10,\"dur_ns\":30,\"depth\":0,\"domain\":%d,\"trace\":0,\"ok\":true,\"attrs\":{}}\n\
        {\"name\":\"inner\",\"start_ns\":20,\"dur_ns\":10,\"depth\":1,\"domain\":%d,\"trace\":0,\"ok\":true,\"attrs\":{\"k\":\"v\\\"w\"}}\n"
       domain domain)
    (Trace.to_jsonl spans)

(* Wall-clock nanoseconds lie past 2^53, where a double rounds; the
   export must print them digit for digit. *)
let test_trace_jsonl_exact_ns () =
  Trace.enable ();
  ignore (Trace.drain ());
  Trace.set_clock (Some (fun () -> 1_729_000_000_123_456_789L));
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.set_clock None;
      ignore (Trace.drain ()))
  @@ fun () ->
  Trace.with_span "wall" (fun () -> ());
  let line = Trace.to_jsonl (Trace.drain ()) in
  check_bool "start_ns exact" true
    (has_substring line "\"start_ns\":1729000000123456789,")

(* ------------------------------------------------------------------ *)
(* (e) Explain waterfall agrees with Types.stats at every level        *)
(* ------------------------------------------------------------------ *)

let test_explain_matches_stats () =
  List.iter
    (fun pruning ->
      let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
      let sink = Explain.create () in
      let opts =
        { Extractor.default_opts with Extractor.pruning; explain = Some sink }
      in
      let report = Extractor.run ~opts ex (`Text paper_doc) in
      check_bool "run succeeded" true (Outcome.is_ok report.Extractor.outcome);
      let stats = report.Extractor.stats in
      let s = Explain.summarize sink in
      let level = Types.pruning_name pruning in
      let eq name a b = check_int (level ^ ": " ^ name) a b in
      eq "docs" 1 s.Explain.docs;
      eq "entities_seen" stats.Types.entities_seen s.Explain.entities_seen;
      eq "pruned_lazy" stats.Types.entities_pruned_lazy s.Explain.pruned_lazy;
      eq "buckets_pruned" stats.Types.buckets_pruned s.Explain.buckets_pruned;
      eq "candidates" stats.Types.candidates s.Explain.candidates;
      eq "survivors" stats.Types.survivors s.Explain.survivors;
      eq "verify_calls" stats.Types.survivors s.Explain.verify_calls;
      eq "matched" stats.Types.verified s.Explain.matched;
      (* Dedup can only shrink the surviving candidate set. *)
      check_bool (level ^ ": dedup shrinks") true
        (s.Explain.candidates_survived >= s.Explain.survivors);
      (* The log itself is well-formed: opens with the document marker. *)
      (match Explain.events sink with
      | Explain.Doc { doc_id = 0 } :: _ -> ()
      | _ -> Alcotest.fail (level ^ ": first event must be Doc"));
      check_bool (level ^ ": events recorded") true (Explain.length sink > 1))
    Types.all_prunings

let test_explain_sink_reuse_accumulates () =
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let sink = Explain.create () in
  let opts = { Extractor.default_opts with Extractor.explain = Some sink } in
  let r1 = Extractor.run ~opts ex (`Text paper_doc) in
  let r2 = Extractor.run ~opts ex (`Text paper_doc) in
  check_bool "both ok" true
    (Outcome.is_ok r1.Extractor.outcome && Outcome.is_ok r2.Extractor.outcome);
  let s = Explain.summarize sink in
  check_int "two docs audited" 2 s.Explain.docs;
  check_int "stats sum across documents"
    (r1.Extractor.stats.Types.candidates + r2.Extractor.stats.Types.candidates)
    s.Explain.candidates;
  Explain.clear sink;
  check_int "clear empties the log" 0 (Explain.length sink)

let test_explain_disarmed_is_inert () =
  check_bool "disarmed by default" false (Explain.armed ());
  check_bool "no current sink" true (Explain.current () = None);
  (* Hook entry points are no-ops without a sink. *)
  Explain.record (Explain.Filter_done { survivors = 1 });
  Explain.skip Explain.Span_pruned;
  let sink = Explain.create () in
  (try
     Explain.with_sink sink (fun () ->
         check_bool "armed inside" true (Explain.armed ());
         check_bool "current inside" true (Explain.current () = Some sink);
         failwith "boom")
   with Failure _ -> ());
  check_bool "disarmed after exception" false (Explain.armed ());
  check_bool "no sink after exception" true (Explain.current () = None);
  check_int "stray records went nowhere" 0 (Explain.length sink)

let test_explain_jsonl_schema () =
  let sink = Explain.create () in
  List.iter
    (Explain.emit sink)
    [
      Explain.Doc { doc_id = 0 };
      Explain.Entity { entity = 3; e_len = 2; n_positions = 5 };
      Explain.Pruned
        { entity = 3; reason = Explain.Lazy_bound { tl = 2; count = 1 } };
      Explain.Pruned { entity = 4; reason = Explain.Bucket_pruned };
      Explain.Window { entity = 3; first = 0; last = 4 };
      Explain.Window_skip { entity = 3; reason = Explain.Span_pruned };
      Explain.Window_skip { entity = 3; reason = Explain.Shift_jumped 5 };
      Explain.Candidate
        { entity = 3; start = 7; len = 2; count = 2; t = 2; survived = true };
      Explain.Filter_done { survivors = 12 };
      Explain.Verifier { choice = "myers" };
      Explain.Verify { entity = 3; start = 7; len = 2; matched = true };
      Explain.Selection { total = 9; kept = 4 };
    ];
  check_string "explain jsonl schema"
    "{\"ev\":\"doc\",\"doc_id\":0}\n\
     {\"ev\":\"entity\",\"entity\":3,\"e_len\":2,\"positions\":5}\n\
     {\"ev\":\"pruned\",\"entity\":3,\"reason\":\"lazy\",\"tl\":2,\"count\":1}\n\
     {\"ev\":\"pruned\",\"entity\":4,\"reason\":\"bucket\"}\n\
     {\"ev\":\"window\",\"entity\":3,\"first\":0,\"last\":4}\n\
     {\"ev\":\"window_skip\",\"entity\":3,\"reason\":\"span\"}\n\
     {\"ev\":\"window_skip\",\"entity\":3,\"reason\":\"shift\",\"jump\":5}\n\
     {\"ev\":\"candidate\",\"entity\":3,\"start\":7,\"len\":2,\"count\":2,\"t\":2,\"survived\":true}\n\
     {\"ev\":\"filter_done\",\"survivors\":12}\n\
     {\"ev\":\"verifier\",\"choice\":\"myers\"}\n\
     {\"ev\":\"verify\",\"entity\":3,\"start\":7,\"len\":2,\"matched\":true}\n\
     {\"ev\":\"selection\",\"total\":9,\"kept\":4}\n"
    (Explain.to_jsonl sink)

(* ------------------------------------------------------------------ *)
(* (f) Perf: quantiles, bench snapshot codec, regression comparison    *)
(* ------------------------------------------------------------------ *)

let hist ~upper ~counts =
  {
    Metrics.upper;
    counts;
    sum = 0.;
    count = Array.fold_left ( + ) 0 counts;
    exemplars = [||];
  }

let check_float = Alcotest.(check (float 1e-9))

let test_quantile () =
  let h = hist ~upper:[| 10.; 20.; 30. |] ~counts:[| 1; 1; 1; 0 |] in
  check_float "median interpolates" 15. (Perf.quantile h 0.5);
  check_float "q=0 is the distribution floor" 0. (Perf.quantile h 0.0);
  check_float "q=1 hits last bound" 30. (Perf.quantile h 1.0);
  let skewed = hist ~upper:[| 10.; 20.; 30. |] ~counts:[| 10; 0; 0; 0 |] in
  check_float "all mass in first bucket" 5. (Perf.quantile skewed 0.5);
  let overflow = hist ~upper:[| 10.; 20.; 30. |] ~counts:[| 0; 0; 0; 2 |] in
  check_float "overflow reports last bound" 30. (Perf.quantile overflow 0.5);
  check_float "overflow at q=1 still last bound" 30. (Perf.quantile overflow 1.0);
  check_float "overflow at q=0 still last bound" 30. (Perf.quantile overflow 0.0);
  let empty = hist ~upper:[| 10. |] ~counts:[| 0; 0 |] in
  check_bool "empty is nan" true (Float.is_nan (Perf.quantile empty 0.5));
  check_bool "empty at q=0 is nan" true (Float.is_nan (Perf.quantile empty 0.0));
  check_bool "empty at q=1 is nan" true (Float.is_nan (Perf.quantile empty 1.0));
  (match Perf.quantile h 1.5 with
  | _ -> Alcotest.fail "q out of range must be rejected"
  | exception Invalid_argument _ -> ());
  match Perf.quantile h (-0.1) with
  | _ -> Alcotest.fail "negative q must be rejected"
  | exception Invalid_argument _ -> ()

let sample_bench =
  {
    Perf.schema = Perf.schema_version;
    git_rev = "abc1234";
    scale = 1.0;
    ocaml = "5.1.1";
    exhibits =
      [
        {
          Perf.ex_name = "smoke";
          wall_s = 0.5;
          tokens = 100;
          tokens_per_s = 200.;
          candidates = 10;
          pruned = 4;
          verify_calls = 8;
          matches = 3;
          p50_ns = 1500.;
          p90_ns = 2000.;
          p99_ns = nan;
          a50_w = 900.;
          a90_w = 9000.;
          a99_w = nan;
          gc =
            Some
              {
                Perf.minor_words = 120000.;
                promoted_words = 8000.;
                major_collections = 2;
                top_heap_bytes = 1048576;
                words_per_token = 1200.;
              };
        };
      ];
  }

let test_bench_json_schema () =
  check_string "bench json schema"
    "{\"schema\":\"faerie-bench-v2\",\"git_rev\":\"abc1234\",\"scale\":1,\"ocaml\":\"5.1.1\",\"exhibits\":[\n\
     {\"name\":\"smoke\",\"wall_s\":0.5,\"tokens\":100,\"tokens_per_s\":200,\"candidates\":10,\"pruned\":4,\"verify_calls\":8,\"matches\":3,\"doc_wall_ns\":{\"p50\":1500,\"p90\":2000,\"p99\":null},\"alloc_per_doc\":{\"p50\":900,\"p90\":9000,\"p99\":null},\"gc\":{\"minor_words\":120000,\"promoted_words\":8000,\"major_collections\":2,\"top_heap_bytes\":1048576,\"words_per_token\":1200}}\n\
     ]}\n"
    (Perf.bench_to_json sample_bench);
  (* An unprofiled exhibit serializes an explicit null gc block. *)
  let no_gc =
    {
      sample_bench with
      Perf.exhibits =
        List.map
          (fun e -> { e with Perf.gc = None; a50_w = nan; a90_w = nan })
          sample_bench.Perf.exhibits;
    }
  in
  let js = Perf.bench_to_json no_gc in
  check_bool "gc null when unprofiled" true
    (has_substring js "\"gc\":null");
  check_bool "alloc percentiles null when unprofiled" true
    (has_substring js "\"alloc_per_doc\":{\"p50\":null,\"p90\":null,\"p99\":null}")

let test_bench_json_roundtrip () =
  match Perf.bench_of_json (Perf.bench_to_json sample_bench) with
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)
  | Ok b -> (
      check_string "schema" sample_bench.Perf.schema b.Perf.schema;
      check_string "git_rev" "abc1234" b.Perf.git_rev;
      check_float "scale" 1.0 b.Perf.scale;
      check_string "ocaml" "5.1.1" b.Perf.ocaml;
      match b.Perf.exhibits with
      | [ e ] ->
          let o = List.hd sample_bench.Perf.exhibits in
          check_string "name" o.Perf.ex_name e.Perf.ex_name;
          check_float "wall_s" o.Perf.wall_s e.Perf.wall_s;
          check_int "tokens" o.Perf.tokens e.Perf.tokens;
          check_float "tokens_per_s" o.Perf.tokens_per_s e.Perf.tokens_per_s;
          check_int "candidates" o.Perf.candidates e.Perf.candidates;
          check_int "pruned" o.Perf.pruned e.Perf.pruned;
          check_int "verify_calls" o.Perf.verify_calls e.Perf.verify_calls;
          check_int "matches" o.Perf.matches e.Perf.matches;
          check_float "p50" o.Perf.p50_ns e.Perf.p50_ns;
          check_float "p90" o.Perf.p90_ns e.Perf.p90_ns;
          check_bool "null p99 roundtrips to nan" true
            (Float.is_nan e.Perf.p99_ns);
          check_float "a50" o.Perf.a50_w e.Perf.a50_w;
          check_float "a90" o.Perf.a90_w e.Perf.a90_w;
          check_bool "null a99 roundtrips to nan" true
            (Float.is_nan e.Perf.a99_w);
          (match (o.Perf.gc, e.Perf.gc) with
          | Some og, Some eg ->
              check_float "gc minor" og.Perf.minor_words eg.Perf.minor_words;
              check_float "gc promoted" og.Perf.promoted_words
                eg.Perf.promoted_words;
              check_int "gc major" og.Perf.major_collections
                eg.Perf.major_collections;
              check_int "gc top heap" og.Perf.top_heap_bytes
                eg.Perf.top_heap_bytes;
              check_float "gc words/token" og.Perf.words_per_token
                eg.Perf.words_per_token
          | _ -> Alcotest.fail "gc block must roundtrip")
      | l -> Alcotest.failf "expected 1 exhibit, got %d" (List.length l))

(* Only builds that predate faerie-bench-v2 wrote v1; its read path is
   gone, so a v1 file is refused by name rather than half-parsed. *)
let test_bench_json_v1_refused () =
  let v1 =
    "{\"schema\":\"faerie-bench-v1\",\"git_rev\":\"abc1234\",\"scale\":1,\"ocaml\":\"5.1.1\",\"exhibits\":[\n\
     {\"name\":\"smoke\",\"wall_s\":0.5,\"tokens\":100,\"tokens_per_s\":200,\"candidates\":10,\"pruned\":4,\"verify_calls\":8,\"matches\":3,\"doc_wall_ns\":{\"p50\":1500,\"p90\":2000,\"p99\":null}}\n\
     ]}\n"
  in
  match Perf.bench_of_json v1 with
  | Ok _ -> Alcotest.fail "a v1 snapshot must be refused"
  | Error e ->
      check_bool "error names the v1 schema" true (has_substring e "faerie-bench-v1")

let test_bench_json_rejects () =
  (match Perf.bench_of_json "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  (match
     Perf.bench_of_json "{\"schema\":\"faerie-bench-v0\",\"exhibits\":[]}"
   with
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      check_bool "schema version named" true (contains e "faerie-bench-v0")
  | Ok _ -> Alcotest.fail "wrong schema version must be rejected");
  match Perf.bench_of_json "{\"schema\":\"faerie-bench-v1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing exhibits must be rejected"

let test_compare_benches () =
  let with_wall w =
    {
      sample_bench with
      Perf.exhibits =
        List.map
          (fun e -> { e with Perf.wall_s = w })
          sample_bench.Perf.exhibits;
    }
  in
  (* Identical snapshot: pass, ratio 1. *)
  let c =
    Perf.compare_benches ~baseline:sample_bench ~current:sample_bench ()
  in
  check_bool "identical passes" false c.Perf.any_regressed;
  (match c.Perf.verdicts with
  | [ v ] ->
      check_float "ratio 1" 1.0 v.Perf.ratio;
      check_bool "not regressed" false v.Perf.regressed
  | _ -> Alcotest.fail "expected one verdict");
  (* Synthetic 2x slowdown: flagged at the default 1.5 ratio. *)
  let c =
    Perf.compare_benches ~baseline:sample_bench ~current:(with_wall 1.0) ()
  in
  check_bool "2x slowdown regresses" true c.Perf.any_regressed;
  (match c.Perf.verdicts with
  | [ v ] ->
      check_float "ratio 2" 2.0 v.Perf.ratio;
      check_bool "flagged" true v.Perf.regressed
  | _ -> Alcotest.fail "expected one verdict");
  (* A generous gate tolerates the same slowdown. *)
  let c =
    Perf.compare_benches ~max_ratio:3.0 ~baseline:sample_bench
      ~current:(with_wall 1.0) ()
  in
  check_bool "max-ratio 3 tolerates 2x" false c.Perf.any_regressed;
  (* A baseline exhibit missing from current is a regression. *)
  let c =
    Perf.compare_benches ~baseline:sample_bench
      ~current:{ sample_bench with Perf.exhibits = [] }
      ()
  in
  check_bool "missing exhibit regresses" true c.Perf.any_regressed;
  Alcotest.(check (list string)) "missing named" [ "smoke" ] c.Perf.missing;
  (* Extra exhibits in current are not regressions. *)
  let c =
    Perf.compare_benches
      ~baseline:{ sample_bench with Perf.exhibits = [] }
      ~current:sample_bench ()
  in
  check_bool "new exhibit ignored" false c.Perf.any_regressed;
  check_int "no verdicts" 0 (List.length c.Perf.verdicts)

let test_compare_alloc_gate () =
  let with_minor mw =
    {
      sample_bench with
      Perf.exhibits =
        List.map
          (fun e ->
            {
              e with
              Perf.gc =
                Option.map
                  (fun g -> { g with Perf.minor_words = mw })
                  e.Perf.gc;
            })
          sample_bench.Perf.exhibits;
    }
  in
  let strip_gc b =
    {
      b with
      Perf.exhibits =
        List.map (fun e -> { e with Perf.gc = None }) b.Perf.exhibits;
    }
  in
  (* Same wall time, double the allocation: invisible without the gate,
     flagged with it. *)
  let doubled = with_minor 240000. in
  let c = Perf.compare_benches ~baseline:sample_bench ~current:doubled () in
  check_bool "no gate, no alloc regression" false c.Perf.any_regressed;
  let c =
    Perf.compare_benches ~max_alloc_ratio:1.5 ~baseline:sample_bench
      ~current:doubled ()
  in
  check_bool "alloc gate fires" true c.Perf.any_regressed;
  (match c.Perf.verdicts with
  | [ v ] ->
      check_bool "wall not regressed" false v.Perf.regressed;
      check_bool "alloc regressed" true v.Perf.alloc_regressed;
      (match v.Perf.alloc_ratio with
      | Some r -> check_float "alloc ratio 2" 2.0 r
      | None -> Alcotest.fail "alloc ratio expected")
  | _ -> Alcotest.fail "expected one verdict");
  let c =
    Perf.compare_benches ~max_alloc_ratio:3.0 ~baseline:sample_bench
      ~current:doubled ()
  in
  check_bool "generous alloc gate tolerates 2x" false c.Perf.any_regressed;
  (* A v1/no-gc baseline has nothing to compare against: exempt. *)
  let c =
    Perf.compare_benches ~max_alloc_ratio:1.5
      ~baseline:(strip_gc sample_bench) ~current:doubled ()
  in
  check_bool "no-gc baseline exempt" false c.Perf.any_regressed;
  (* The baseline has gc data but the current doesn't: profiling went
     dark, which the gate must refuse to wave through. *)
  let c =
    Perf.compare_benches ~max_alloc_ratio:1.5 ~baseline:sample_bench
      ~current:(strip_gc sample_bench) ()
  in
  check_bool "gc disappearing regresses" true c.Perf.any_regressed;
  (match c.Perf.verdicts with
  | [ v ] -> check_bool "ratio pegged" true (v.Perf.alloc_ratio = Some infinity)
  | _ -> Alcotest.fail "expected one verdict");
  let rendered = Perf.render_comparison ~max_ratio:1.5 ~max_alloc_ratio:1.5 c in
  check_bool "footer names both gates" true
    (has_substring rendered "max-alloc-ratio 1.50")

(* ------------------------------------------------------------------ *)
(* (f') Prof: GC telemetry and flame folding                           *)
(* ------------------------------------------------------------------ *)

module Prof = Faerie_obs.Prof

let test_prof_disabled_zero_captures () =
  check_bool "prof off by default" false (Prof.enabled ());
  let before = Prof.captures () in
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let report = Extractor.run ex (`Text paper_doc) in
  check_bool "run ok" true (Outcome.is_ok report.Extractor.outcome);
  check_int "zero Gc.quick_stat calls while disabled" before (Prof.captures ())

let with_prof f =
  Prof.enable ();
  Fun.protect ~finally:Prof.disable f

let test_prof_enabled_populates_metrics () =
  with_prof @@ fun () ->
  Metrics.reset ();
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let before = Prof.captures () in
  let report = Extractor.run ex (`Text paper_doc) in
  check_bool "run ok" true (Outcome.is_ok report.Extractor.outcome);
  check_bool "captures taken" true (Prof.captures () > before);
  let snap = Metrics.snapshot () in
  check_bool "minor words counted" true
    (Metrics.counter_value snap "gc_minor_words" > 0);
  check_bool "tokenize stage counted" true
    (Metrics.counter_value snap "gc_minor_words_tokenize" > 0);
  check_bool "heap watermark recorded" true
    (Metrics.gauge_value snap "gc_top_heap_bytes" > 0.);
  match List.assoc_opt "doc_alloc_words" snap.Metrics.histograms with
  | Some h ->
      check_int "one doc observed" 1 h.Metrics.count;
      check_bool "allocation observed" true (h.Metrics.sum > 0.)
  | None -> Alcotest.fail "doc_alloc_words histogram missing"

(* The per-doc allocation histogram must aggregate deterministically
   across worker domains: 12 documents are 12 observations whether one
   domain or four processed them, and the totals/watermark survive the
   shard merge. *)
let test_prof_parallel_aggregation () =
  with_prof @@ fun () ->
  let problem = Problem.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let docs =
    Array.init 12 (fun i ->
        if i mod 3 = 0 then paper_doc
        else if i mod 3 = 1 then "surauijt chadhuri and venkatesh"
        else "no entities here at all")
  in
  let observe domains =
    Metrics.reset ();
    let outcomes, _ = Parallel.extract_all_outcomes ~domains problem docs in
    check_int "all docs processed" 12 (Array.length outcomes);
    let snap = Metrics.snapshot () in
    let count =
      match List.assoc_opt "doc_alloc_words" snap.Metrics.histograms with
      | Some h -> h.Metrics.count
      | None -> 0
    in
    check_bool
      (Printf.sprintf "minor words counted (%d domains)" domains)
      true
      (Metrics.counter_value snap "gc_minor_words" > 0);
    check_bool
      (Printf.sprintf "watermark positive (%d domains)" domains)
      true
      (Metrics.gauge_value snap "gc_top_heap_bytes" > 0.);
    count
  in
  check_int "sequential: one observation per doc" 12 (observe 1);
  check_int "4 domains: one observation per doc" 12 (observe 4)

let test_gauge_max_merge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg ~agg:`Max "peak" in
  Metrics.set_max g 10.;
  Metrics.set_max g 4.;
  Domain.join (Domain.spawn (fun () -> Metrics.set_max g 25.));
  Domain.join (Domain.spawn (fun () -> Metrics.set_max g 7.));
  let snap = Metrics.snapshot ~registry:reg () in
  check_float "max across domains" 25. (Metrics.gauge_value snap "peak");
  (* Re-registration must agree on the merge mode. *)
  (match Metrics.gauge ~registry:reg "peak" with
  | _ -> Alcotest.fail "agg mismatch must be rejected"
  | exception Invalid_argument _ -> ());
  (* Sum gauges still sum across domains. *)
  let s = Metrics.gauge ~registry:reg "total" in
  Metrics.add_gauge s 1.;
  Domain.join (Domain.spawn (fun () -> Metrics.add_gauge s 2.));
  let snap = Metrics.snapshot ~registry:reg () in
  check_float "sum across domains" 3. (Metrics.gauge_value snap "total")

(* Locked folded-stack schema: with the deterministic clock the whole
   profile is fully determined, including self-time subtraction of the
   nested spans. *)
let test_flame_folded_locked () =
  with_deterministic_clock @@ fun () ->
  Trace.with_span "extract_doc" (fun () ->
      Trace.with_span "tokenize" (fun () -> ());
      Trace.with_span "filter" (fun () ->
          Trace.with_span "heap_merge" (fun () -> ())));
  let spans = Trace.drain () in
  let frames = Prof.flame_of_spans spans in
  check_string "folded schema"
    "extract_doc 30\n\
     extract_doc;filter 20\n\
     extract_doc;filter;heap_merge 10\n\
     extract_doc;tokenize 10\n"
    (Prof.to_folded frames);
  (* Every span contributed one call to its frame. *)
  List.iter (fun f -> check_int "one call per frame" 1 f.Prof.calls) frames;
  (* render_top ranks by self time: the root's 30ns of self time wins. *)
  let top = Prof.render_top ~top:2 frames in
  check_bool "top table has the root" true (has_substring top "extract_doc");
  check_bool "top table is capped" false (has_substring top "tokenize")

let test_flame_merges_across_domains () =
  with_deterministic_clock @@ fun () ->
  let work () = Trace.with_span "outer" (fun () -> ()) in
  work ();
  Domain.join (Domain.spawn work);
  let frames = Prof.flame_of_spans (Trace.drain ()) in
  match frames with
  | [ f ] ->
      Alcotest.(check (list string)) "one merged stack" [ "outer" ] f.Prof.stack;
      check_int "both calls counted" 2 f.Prof.calls;
      check_string "self times summed" "outer 20\n" (Prof.to_folded frames)
  | l -> Alcotest.failf "expected 1 frame, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* (g) Prometheus escaping, trace drain ordering, suppression nesting  *)
(* ------------------------------------------------------------------ *)

let test_prometheus_hostile_help () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg ~help:"line1\nline2\\end" "hostile" in
  Metrics.add c 2;
  check_string "help newline and backslash escaped"
    "# HELP hostile line1\\nline2\\\\end\n# TYPE hostile counter\nhostile 2\n"
    (Metrics.to_prometheus ~registry:reg ())

let test_trace_drain_cross_domain () =
  with_deterministic_clock @@ fun () ->
  Trace.with_span "alpha" (fun () -> ());
  Domain.join
    (Domain.spawn (fun () -> Trace.with_span "beta" (fun () -> ())));
  Domain.join
    (Domain.spawn (fun () -> Trace.with_span "gamma" (fun () -> ())));
  Trace.with_span "delta" (fun () -> ());
  let spans = Trace.drain () in
  Alcotest.(check (list string))
    "time-ordered across domains"
    [ "alpha"; "beta"; "gamma"; "delta" ]
    (List.map (fun s -> s.Trace.name) spans);
  (* The injected clock ticks 10ns per read; each span reads it twice, so
     start times are fully determined. *)
  Alcotest.(check (list int))
    "deterministic start times" [ 10; 30; 50; 70 ]
    (List.map (fun s -> Int64.to_int s.Trace.start_ns) spans);
  let dom i = (List.nth spans i).Trace.domain in
  check_bool "beta recorded on its own domain" true (dom 1 <> dom 0);
  check_bool "gamma on a third buffer" true (dom 2 <> dom 0);
  check_bool "drain cleared every buffer" true (Trace.drain () = [])

let test_suppressed_nesting_exception () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "c" in
  Metrics.with_suppressed ~registry:reg (fun () ->
      Metrics.incr c;
      (try
         Metrics.with_suppressed ~registry:reg (fun () ->
             Metrics.incr c;
             failwith "boom")
       with Failure _ -> ());
      (* The inner exception must not tear down the outer suppression. *)
      Metrics.incr c);
  Metrics.incr c;
  let snap = Metrics.snapshot ~registry:reg () in
  check_int "only the unsuppressed write lands" 1
    (Metrics.counter_value snap "c")

(* ------------------------------------------------------------------ *)
(* Registry mechanics                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry_mechanics () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "c" in
  let c' = Metrics.counter ~registry:reg "c" in
  Metrics.incr c;
  Metrics.incr c';
  let snap = Metrics.snapshot ~registry:reg () in
  check_int "same name = same counter" 2 (Metrics.counter_value snap "c");
  (match Metrics.gauge ~registry:reg "c" with
  | _ -> Alcotest.fail "kind mismatch must be rejected"
  | exception Invalid_argument _ -> ());
  (* Late registration after a shard exists grows the shard on write. *)
  let d = Metrics.counter ~registry:reg "late" in
  Metrics.add d 7;
  let snap = Metrics.snapshot ~registry:reg () in
  check_int "late counter" 7 (Metrics.counter_value snap "late");
  Metrics.reset ~registry:reg ();
  let snap = Metrics.snapshot ~registry:reg () in
  check_int "reset zeroes" 0 (Metrics.counter_value snap "c");
  (match Metrics.add c (-1) with
  | () -> Alcotest.fail "negative add must be rejected"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Labeled gauge families in the Prometheus export                     *)
(* ------------------------------------------------------------------ *)

(* An indexed_gauge family registered with ~label renders as one family
   with one labeled sample per member (shard_up{shard="3"}), header
   emitted once — not as name-suffixed series. JSONL identity stays on
   the composed name. *)
let test_prometheus_labeled_family () =
  let reg = Metrics.create () in
  let up0 =
    Metrics.indexed_gauge ~registry:reg ~help:"shard liveness" ~agg:`Max
      ~label:"shard" "shard_up" 0
  in
  let up3 =
    Metrics.indexed_gauge ~registry:reg ~help:"shard liveness" ~agg:`Max
      ~label:"shard" "shard_up" 3
  in
  Metrics.set up0 1.;
  Metrics.set up3 0.;
  check_string "labeled family renders once with per-member samples"
    ("# HELP shard_up shard liveness\n# TYPE shard_up gauge\n"
   ^ "shard_up{shard=\"0\"} 1\nshard_up{shard=\"3\"} 0\n")
    (Metrics.to_prometheus ~registry:reg ());
  check_string "jsonl keeps the composed member names"
    ("{\"type\":\"gauge\",\"name\":\"shard_up_0\",\"value\":1}\n"
   ^ "{\"type\":\"gauge\",\"name\":\"shard_up_3\",\"value\":0}\n")
    (Metrics.to_jsonl ~registry:reg ())

(* Label values are quoted in the exposition format, so backslash, double
   quote and newline must all be escaped (HELP only escapes two of the
   three). Hand-built snapshot: real indexed_gauge labels are integer
   strings, but render_prometheus must stay safe for any shipped
   snapshot. *)
let test_prometheus_label_escaping () =
  let snap =
    {
      Metrics.counters = [];
      gauges =
        [
          ( "family_x",
            {
              Metrics.value = 2.;
              agg = `Max;
              label = Some ("family", "key", "a\\b\"c\nd");
            } );
        ];
      histograms = [];
    }
  in
  check_string "label value escapes backslash, quote and newline"
    "# TYPE family gauge\nfamily{key=\"a\\\\b\\\"c\\nd\"} 2\n"
    (Metrics.render_prometheus ~registry:(Metrics.create ()) snap)

(* ------------------------------------------------------------------ *)
(* merge_snapshots is order-invariant (qcheck)                         *)
(* ------------------------------------------------------------------ *)

(* Snapshot generator for the merge laws. Values are small integers so
   float addition is exact (structural comparison is meaningful), and the
   per-name agg / bucket layout are functions of the name — mixed modes
   under one name are a registry-kind violation, which merge resolves
   first-seen and is deliberately outside the invariance claim. *)
let gen_merge_snapshot =
  let open QCheck.Gen in
  let names = [ "alpha"; "beta"; "gamma"; "delta"; "eps" ] in
  let pick_subset =
    List.fold_left
      (fun acc n -> map2 (fun keep l -> if keep then n :: l else l) bool acc)
      (return []) names
  in
  let agg_of n = if String.length n mod 2 = 0 then `Sum else `Max in
  let upper_of n =
    if String.length n mod 2 = 0 then [| 1.; 10. |] else [| 5. |]
  in
  let counters = pick_subset >>= fun ns ->
    flatten_l
      (List.map (fun n -> map (fun v -> (n, v)) (int_bound 1000)) ns)
  in
  let gauges = pick_subset >>= fun ns ->
    flatten_l
      (List.map
         (fun n ->
           map
             (fun v ->
               ( n,
                 {
                   Metrics.value = float_of_int v;
                   agg = agg_of n;
                   label = None;
                 } ))
             (int_bound 100))
         ns)
  in
  let histograms = pick_subset >>= fun ns ->
    flatten_l
      (List.map
         (fun n ->
           let upper = upper_of n in
           let nb = Array.length upper + 1 in
           let exemplars =
             (* [(0, 0.)] is the "no exemplar" sentinel; a non-zero value
                under trace 0 would break merge commutativity, so never
                generate one. *)
             let slot =
               bool >>= fun live ->
               if live then
                 map2
                   (fun t v -> (1 + t, float_of_int v))
                   (int_bound 1000) (int_bound 900)
               else return (0, 0.)
             in
             bool >>= fun any ->
             if any then map Array.of_list (list_repeat nb slot)
             else return [||]
           in
           map2
             (fun counts exemplars ->
               let counts = Array.of_list counts in
               ( n,
                 {
                   Metrics.upper;
                   counts;
                   sum = float_of_int (Array.fold_left ( + ) 0 counts);
                   count = Array.fold_left ( + ) 0 counts;
                   exemplars;
                 } ))
             (list_repeat nb (int_bound 50))
             exemplars)
         ns)
  in
  map3
    (fun counters gauges histograms ->
      { Metrics.counters; gauges; histograms })
    counters gauges histograms

let gen_merge_snapshot_arb =
  QCheck.make ~print:Metrics.render_jsonl gen_merge_snapshot

let arb_merge_snapshots =
  QCheck.make
    ~print:(fun snaps ->
      String.concat "---\n" (List.map Metrics.render_jsonl snaps))
    QCheck.Gen.(list_size (int_range 0 5) gen_merge_snapshot)

let merge_permutation_invariant =
  QCheck.Test.make ~count:300 ~name:"merge invariant under permutation"
    arb_merge_snapshots (fun snaps ->
      let reference = Metrics.merge_snapshots snaps in
      (* A deterministic non-trivial permutation: reverse, and rotate. *)
      let rotated = match snaps with [] -> [] | x :: tl -> tl @ [ x ] in
      Metrics.merge_snapshots (List.rev snaps) = reference
      && Metrics.merge_snapshots rotated = reference)

let merge_associative =
  QCheck.Test.make ~count:300 ~name:"merge invariant under re-association"
    (QCheck.triple gen_merge_snapshot_arb gen_merge_snapshot_arb
       gen_merge_snapshot_arb) (fun (a, b, c) ->
      let flat = Metrics.merge_snapshots [ a; b; c ] in
      Metrics.merge_snapshots [ Metrics.merge_snapshots [ a; b ]; c ] = flat
      && Metrics.merge_snapshots [ a; Metrics.merge_snapshots [ b; c ] ] = flat)

let merge_identity =
  QCheck.Test.make ~count:100 ~name:"merging one snapshot only sorts it"
    gen_merge_snapshot_arb (fun s ->
      let once = Metrics.merge_snapshots [ s ] in
      Metrics.merge_snapshots [ once ] = once
      && List.for_all
           (fun (n, v) -> Metrics.counter_value once n = v)
           s.Metrics.counters)

(* ------------------------------------------------------------------ *)
(* (h) request diagnostics: sampling, slowlog, exemplars, SLO          *)
(* ------------------------------------------------------------------ *)

module Sampling = Faerie_obs.Sampling
module Slowlog = Faerie_obs.Slowlog
module Slo = Faerie_obs.Slo
module Build_info = Faerie_obs.Build_info

let test_sampling_disabled_zero_captures () =
  Sampling.disarm ();
  check_bool "sampling off by default" false (Sampling.armed ());
  let before = Sampling.captures () in
  for ord = 0 to 999 do
    check_bool "disarmed decide is false" false (Sampling.decide ord)
  done;
  check_int "zero armed-path decisions while disarmed" before
    (Sampling.captures ())

let test_sampling_determinism () =
  Fun.protect ~finally:Sampling.disarm @@ fun () ->
  (* The fraction behind every decision is a pure function of
     (seed, ordinal). *)
  for ord = 0 to 99 do
    let f = Sampling.fraction ~seed:7 ord in
    check_bool "fraction in [0,1)" true (f >= 0. && f < 1.);
    Alcotest.(check (float 0.)) "fraction is pure" f
      (Sampling.fraction ~seed:7 ord)
  done;
  check_bool "seed decorrelates ordinals" true
    (Sampling.fraction ~seed:1 42 <> Sampling.fraction ~seed:2 42);
  Sampling.configure ~seed:7 0.35;
  check_bool "armed" true (Sampling.armed ());
  Alcotest.(check (float 0.)) "rate reported" 0.35 (Sampling.rate ());
  let before = Sampling.captures () in
  let dec1 = List.init 200 Sampling.decide in
  check_int "armed decisions counted" (before + 200) (Sampling.captures ());
  List.iteri
    (fun ord d ->
      check_bool "decide agrees with the exposed fraction" d
        (Sampling.fraction ~seed:7 ord < 0.35))
    dec1;
  check_bool "a 0.35 rate samples some but not all" true
    (List.exists Fun.id dec1 && not (List.for_all Fun.id dec1));
  (* Decisions survive a disarm/re-arm cycle: reproducible across runs. *)
  Sampling.disarm ();
  Sampling.configure ~seed:7 0.35;
  check_bool "decisions survive re-arming" true
    (List.init 200 Sampling.decide = dec1);
  (* Topology independence: 4 shards each deciding their own ordinals
     (round-robin partition, shard-local order) sample exactly the
     ordinals one sequential process would. *)
  let ords = List.init 200 Fun.id in
  let single = List.filter Sampling.decide ords in
  let sharded =
    List.concat_map
      (fun shard ->
        List.filter Sampling.decide
          (List.filter (fun o -> o mod 4 = shard) ords))
      [ 0; 1; 2; 3 ]
    |> List.sort compare
  in
  check_bool "4-shard sampling matches 1-shard ordinals" true
    (single = sharded);
  (* Rate edges: clamped to 1.0, and rate 1.0 samples everything. *)
  Sampling.configure ~seed:7 2.0;
  Alcotest.(check (float 0.)) "rate clamps to 1.0" 1.0 (Sampling.rate ());
  check_bool "rate 1.0 samples every ordinal" true
    (List.for_all Sampling.decide ords);
  Sampling.configure ~seed:7 0.0;
  check_bool "rate 0 disarms" false (Sampling.armed ());
  (* Trace-id convention: ordinal + 1, with 0 reserved for no-trace. *)
  List.iter
    (fun o ->
      check_bool "trace id is never 0" true (Sampling.trace_id o <> 0);
      check_int "ord_of_trace inverts trace_id" o
        (Sampling.ord_of_trace (Sampling.trace_id o)))
    [ 0; 1; 41; 65535 ]

let test_slowlog_disabled_zero_captures () =
  Slowlog.disarm ();
  check_bool "slowlog off by default" false (Slowlog.armed ());
  let before = Slowlog.captures () in
  check_bool "no capture decision while disarmed" false
    (Slowlog.should_capture ~wall_ns:1e12);
  Slowlog.capture ~wall_ns:1e12 (Json.Obj [ ("never", Json.int 1) ]);
  (* A full extraction exercises every Prof.with_stage bracket; none may
     touch the armed path. *)
  let ex = Extractor.create ~sim:(Sim.Edit_distance 2) ~q:2 paper_dict in
  let report = Extractor.run ex (`Text paper_doc) in
  check_bool "run ok" true (Outcome.is_ok report.Extractor.outcome);
  check_int "zero armed-path activations while disarmed" before
    (Slowlog.captures ());
  check_int "nothing retained" 0 (List.length (Slowlog.drain ()))

let test_slowlog_ring () =
  Fun.protect ~finally:Slowlog.disarm @@ fun () ->
  Slowlog.configure ~capacity:2 ();
  check_bool "armed" true (Slowlog.armed ());
  check_bool "ring-only capture has no write-through threshold" true
    (Slowlog.slow_ns () = Float.infinity);
  check_bool "empty ring accepts anything" true
    (Slowlog.should_capture ~wall_ns:1.);
  Slowlog.capture ~wall_ns:5e6 (Json.Str "five");
  Slowlog.capture ~wall_ns:1e6 (Json.Str "one");
  Slowlog.capture ~wall_ns:9e6 (Json.Str "nine");
  (* capacity 2: "one" (the least slow) was evicted. *)
  check_int "total counts evicted records too" 3 (Slowlog.total ());
  (match Slowlog.drain () with
  | [ (w1, l1); (w2, l2) ] ->
      check_bool "slowest first" true (l1 = Json.Str "nine");
      check_bool "runner-up second" true (l2 = Json.Str "five");
      check_bool "wall times ordered" true (w1 > w2)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 2 ring entries, got %d" (List.length l)));
  check_bool "full ring rejects a faster request" false
    (Slowlog.should_capture ~wall_ns:2e6);
  check_bool "full ring accepts a slower request" true
    (Slowlog.should_capture ~wall_ns:6e6)

let read_all path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_slowlog_write_through_and_flush () =
  let path = Filename.temp_file "faerie_slowlog" ".ndjson" in
  Fun.protect
    ~finally:(fun () ->
      Slowlog.disarm ();
      Sys.remove path)
  @@ fun () ->
  Slowlog.configure ~capacity:4 ~slow_ms:10. ~path ();
  check_bool "threshold in ns" true (Slowlog.slow_ns () = 10. *. 1e6);
  Slowlog.capture ~wall_ns:50e6 (Json.Str "over");
  Slowlog.capture ~wall_ns:1e6 (Json.Str "under");
  check_string "over-threshold records write through immediately" "\"over\"\n"
    (read_all path);
  Slowlog.disarm ();
  check_string "disarm flushes the below-threshold ring tail"
    "\"over\"\n\"under\"\n" (read_all path)

let test_slowlog_stage_scratch () =
  Fun.protect
    ~finally:(fun () ->
      Slowlog.disarm ();
      Trace.set_clock None)
  @@ fun () ->
  (* A deterministic clock drives the stage brackets: each read advances
     10 ns, so one bracket measures exactly 10. *)
  let t = ref 0L in
  Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 10L;
         !t));
  Slowlog.configure ();
  check_bool "stage brackets armed with the ring" true (Slowlog.stage_armed ());
  check_int "stage table has 4 stages" 4 Slowlog.n_stages;
  check_string "stage 0" "tokenize" (Slowlog.stage_name 0);
  check_string "stage 3" "verify" (Slowlog.stage_name 3);
  Slowlog.doc_begin ();
  check_bool "scratch is unsealed at doc_begin" true (Slowlog.last_doc () = None);
  (* Prof.with_stage feeds the scratch even with Prof itself disabled. *)
  check_bool "prof stays off" false (Prof.enabled ());
  Prof.with_stage Prof.Tokenize (fun () -> ());
  Slowlog.note_stage 3 5.0;
  Slowlog.doc_end ~wall_ns:1234. ~trace:42;
  match Slowlog.last_doc () with
  | None -> Alcotest.fail "sealed scratch expected after doc_end"
  | Some d ->
      Alcotest.(check (float 0.)) "wall sealed" 1234. d.Slowlog.wall_ns;
      check_int "trace sealed" 42 d.Slowlog.trace;
      Alcotest.(check (float 0.)) "tokenize bracket measured by the clock" 10.
        d.Slowlog.stages_ns.(0);
      Alcotest.(check (float 0.)) "verify stage accumulated" 5.
        d.Slowlog.stages_ns.(3)

let test_exemplar_capture () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.; 2. |] "gamma" in
  Metrics.observe h 0.5;
  Metrics.observe_ex h 1.5 ~trace:7;
  Metrics.observe_ex h 1.8 ~trace:3;
  Metrics.observe_ex h 10. ~trace:9;
  Metrics.observe_ex h 0.25 ~trace:0;
  let snap = Metrics.snapshot ~registry:reg () in
  match snap.Metrics.histograms with
  | [ ("gamma", hs) ] ->
      check_int "traced observations still count" 5 hs.Metrics.count;
      Alcotest.(check (array int)) "counts" [| 2; 2; 1 |] hs.Metrics.counts;
      check_int "one exemplar cell per bucket" 3
        (Array.length hs.Metrics.exemplars);
      check_bool "untraced bucket holds no exemplar" true
        (hs.Metrics.exemplars.(0) = (0, 0.));
      check_bool "larger value wins the bucket" true
        (hs.Metrics.exemplars.(1) = (3, 1.8));
      check_bool "overflow bucket carries its exemplar" true
        (hs.Metrics.exemplars.(2) = (9, 10.))
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_exemplar_merge_law () =
  let hsnap exemplars counts =
    {
      Metrics.upper = [| 1.; 2. |];
      counts;
      sum = 0.;
      count = Array.fold_left ( + ) 0 counts;
      exemplars;
    }
  in
  let snap hs = { Metrics.counters = []; gauges = []; histograms = hs } in
  let a =
    snap [ ("h", hsnap [| (1, 0.5); (0, 0.); (4, 7.) |] [| 1; 0; 1 |]) ]
  in
  let b =
    snap [ ("h", hsnap [| (2, 0.25); (5, 1.5); (3, 7.) |] [| 1; 1; 1 |]) ]
  in
  let c = snap [ ("h", hsnap [||] [| 1; 0; 0 |]) ] in
  let m = Metrics.merge_snapshots [ a; b; c ] in
  match m.Metrics.histograms with
  | [ ("h", hs) ] ->
      check_int "counts still sum" 6 hs.Metrics.count;
      (* Bucket 0: 0.5 beats 0.25; bucket 1: an exemplar beats none;
         bucket 2: equal values break toward the larger trace id. *)
      check_bool "per-bucket max-by-value, ties to larger trace" true
        (hs.Metrics.exemplars = [| (1, 0.5); (5, 1.5); (4, 7.) |])
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_exemplar_export_schema () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.; 2. |] "gamma" in
  Metrics.observe h 0.5;
  Metrics.observe_ex h 1.5 ~trace:7;
  check_string "jsonl histogram line carries exemplars"
    "{\"type\":\"histogram\",\"name\":\"gamma\",\"upper\":[1,2],\"counts\":[1,1,0],\"sum\":2,\"count\":2,\"exemplars\":[{\"i\":1,\"trace\":7,\"value\":1.5}]}\n"
    (Metrics.to_jsonl ~registry:reg ());
  (* OpenMetrics: cumulative bucket counts, with the bucket's (non-
     cumulative) exemplar as a hash-comment suffix on the bucket line. *)
  check_string "prometheus exemplar suffix"
    ("# TYPE gamma histogram\n"
   ^ "gamma_bucket{le=\"1\"} 1\n"
   ^ "gamma_bucket{le=\"2\"} 2 # {trace_id=\"7\"} 1.5\n"
   ^ "gamma_bucket{le=\"+Inf\"} 2\n"
   ^ "gamma_sum 2\ngamma_count 2\n")
    (Metrics.to_prometheus ~registry:reg ())

let test_graft_edge_cases () =
  (* A frozen clock pins graft's no-later-than-now clamp. *)
  Trace.set_clock (Some (fun () -> 1000L));
  Trace.enable ();
  ignore (Trace.drain ());
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.set_clock None;
      ignore (Trace.drain ()))
  @@ fun () ->
  let span ?(depth = 1) ?(dur = 0L) name start =
    {
      Trace.name;
      start_ns = start;
      dur_ns = dur;
      depth;
      domain = 99;
      trace = 1;
      ok = true;
      attrs = [];
    }
  in
  (* Zero-duration span from the future: pulled back so start = end =
     now, never past it. *)
  Trace.graft [ span "zero" 5000L ];
  (match Trace.drain () with
  | [ s ] ->
      check_bool "future zero-duration span clamps to now" true
        (s.Trace.start_ns = 1000L && s.Trace.dur_ns = 0L);
      check_int "re-domained to the grafting domain"
        (Domain.self () :> int)
        s.Trace.domain
  | l -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l)));
  (* lo_ns: a span must not start before the enclosing request span. *)
  Trace.graft ~lo_ns:500L [ span "early" 0L ~dur:100L ];
  (match Trace.drain () with
  | [ s ] ->
      check_bool "lo_ns pulls the subtree forward" true
        (s.Trace.start_ns = 500L && s.Trace.dur_ns = 100L)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l)));
  (* Both clamps shift the subtree uniformly: relative offsets survive. *)
  Trace.graft ~offset_ns:2000L
    [ span "parent" 0L ~depth:0 ~dur:100L; span "child" 50L ~dur:0L ];
  (match Trace.drain () with
  | [ p; c ] ->
      check_bool "subtree end pulled back to now" true
        (Int64.add p.Trace.start_ns p.Trace.dur_ns <= 1000L);
      check_bool "uniform shift preserves relative offsets" true
        (Int64.sub c.Trace.start_ns p.Trace.start_ns = 50L)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)))

let test_flame_no_negative_self_time () =
  (* Zero-duration and full-width children must never drive a parent's
     self-time negative. *)
  let span name start dur depth =
    {
      Trace.name;
      start_ns = start;
      dur_ns = dur;
      depth;
      domain = 1;
      trace = 0;
      ok = true;
      attrs = [];
    }
  in
  let spans =
    [
      span "root" 0L 100L 0;
      span "full" 0L 100L 1 (* consumes all of root's time *);
      span "zero" 0L 0L 2 (* zero-duration grandchild *);
      span "late_zero" 100L 0L 1;
    ]
  in
  let frames = Prof.flame_of_spans spans in
  List.iter
    (fun f ->
      check_bool
        (Printf.sprintf "no negative self-time for %s"
           (String.concat ";" f.Prof.stack))
        true
        (Int64.compare f.Prof.self_ns 0L >= 0))
    frames;
  (match List.find_opt (fun f -> f.Prof.stack = [ "root" ]) frames with
  | Some f -> check_bool "root self-time fully discharged" true (f.Prof.self_ns = 0L)
  | None -> Alcotest.fail "root frame expected");
  (* The folded rendering drops zero-self frames rather than emitting
     negative or empty weights. *)
  let folded = Prof.to_folded frames in
  check_bool "folded omits zero-self frames" false
    (has_substring folded "root 0")

let test_slo_parse () =
  (match Slo.parse "p99=50ms,avail=99.9" with
  | Error e -> Alcotest.fail e
  | Ok o ->
      (match o.Slo.latency with
      | Some (q, thr_ns) ->
          Alcotest.(check (float 0.)) "quantile" 0.99 q;
          Alcotest.(check (float 0.)) "threshold in ns" 5e7 thr_ns
      | None -> Alcotest.fail "latency objective expected");
      (match o.Slo.avail with
      | Some a -> Alcotest.(check (float 1e-12)) "avail fraction" 0.999 a
      | None -> Alcotest.fail "avail objective expected");
      check_string "render/reparse fixpoint" "p99=50ms,avail=99.9"
        (Slo.to_string o));
  (match Slo.parse "p99.9=2s" with
  | Ok { Slo.latency = Some (q, thr_ns); avail = None } ->
      Alcotest.(check (float 1e-12)) "p99.9" 0.999 q;
      Alcotest.(check (float 0.)) "2s in ns" 2e9 thr_ns
  | _ -> Alcotest.fail "p99.9=2s must parse");
  (match Slo.parse "avail=0.999" with
  | Ok { Slo.avail = Some a; latency = None } ->
      Alcotest.(check (float 0.)) "fraction form" 0.999 a
  | _ -> Alcotest.fail "avail=0.999 must parse");
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" bad)
      | Error _ -> ())
    [ ""; "p99"; "p0=5ms"; "p100=5ms"; "p99=50parsecs"; "avail=101"; "foo=1" ]

let test_slo_fraction_le () =
  let check_float = Alcotest.(check (float 1e-9)) in
  let h = hist ~upper:[| 10.; 20.; 30. |] ~counts:[| 1; 1; 1; 0 |] in
  check_float "dual of the median" 0.5 (Slo.fraction_le h 15.);
  check_float "at a bucket bound" (1. /. 3.) (Slo.fraction_le h 10.);
  check_float "above all bounds" 1.0 (Slo.fraction_le h 100.);
  check_float "below everything" 0. (Slo.fraction_le h 0.);
  let overflow = hist ~upper:[| 10. |] ~counts:[| 0; 2 |] in
  check_float "overflow mass sits above any finite x" 0.
    (Slo.fraction_le overflow 10.);
  let empty = hist ~upper:[| 10. |] ~counts:[| 0; 0 |] in
  check_bool "empty histogram is nan" true
    (Float.is_nan (Slo.fraction_le empty 5.))

let test_slo_assess_burn () =
  let objective =
    match Slo.parse "p50=1ms,avail=99" with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let t = Slo.tracker () in
  let snap counters histograms = { Metrics.counters; gauges = []; histograms } in
  let first =
    Slo.assess ~now_s:100. t objective (snap [ ("docs_processed", 0) ] [])
  in
  Alcotest.(check (float 0.)) "first window has no span" 0. first.Slo.window_s;
  check_bool "no traffic, no burn" false first.Slo.burning;
  (* Window: 10 docs, 5 over the 1ms threshold, 2 failed. *)
  let wall =
    {
      Metrics.upper = [| 1e6 |];
      counts = [| 5; 5 |];
      sum = 0.;
      count = 10;
      exemplars = [||];
    }
  in
  let snap1 =
    snap
      [ ("docs_processed", 10); ("docs_failed", 2) ]
      [ ("doc_wall_ns", wall) ]
  in
  let a = Slo.assess ~now_s:130. t objective snap1 in
  Alcotest.(check (float 1e-9)) "window span" 30. a.Slo.window_s;
  check_int "docs in window" 10 a.Slo.docs;
  (* Latency: bad 0.5 against budget 1 - 0.5 -> burn exactly 1.0, which
     is sustainable, not burning. *)
  (match a.Slo.burn_latency with
  | Some b -> Alcotest.(check (float 1e-9)) "latency burn" 1.0 b
  | None -> Alcotest.fail "latency burn expected");
  (* Availability: bad 0.2 against budget 0.01 -> burn 20. *)
  (match a.Slo.burn_avail with
  | Some b -> Alcotest.(check (float 1e-9)) "avail burn" 20. b
  | None -> Alcotest.fail "avail burn expected");
  (match a.Slo.avail_measured with
  | Some m -> Alcotest.(check (float 1e-9)) "measured availability" 0.8 m
  | None -> Alcotest.fail "avail measurement expected");
  check_bool "burn over 1.0 reports burning" true a.Slo.burning;
  (* An idle window (identical snapshot) deltas to zero everywhere. *)
  let a2 = Slo.assess ~now_s:160. t objective snap1 in
  check_int "idle window saw no docs" 0 a2.Slo.docs;
  check_bool "idle window does not burn" false a2.Slo.burning;
  (* A shrinking counter (shard restarted and re-counted) clamps the
     delta to the current reading instead of going negative. *)
  let snap3 =
    snap [ ("docs_processed", 4) ] [ ("doc_wall_ns", wall) ]
  in
  let a3 = Slo.assess ~now_s:190. t objective snap3 in
  check_int "shrinking counter clamps to current reading" 4 a3.Slo.docs;
  (* to_json schema lock. *)
  check_string "assessment json schema"
    "{\"window_s\":30,\"docs\":0,\"latency\":{\"q\":0.5,\"target_ms\":1,\"measured_ms\":null,\"bad_frac\":null,\"burn\":null},\"avail\":{\"target\":0.99,\"measured\":null,\"burn\":null},\"burning\":false}"
    (Json.to_string (Slo.to_json a2))

let test_build_info () =
  let r = Build_info.rev () in
  check_bool "rev is non-empty" true (String.length r > 0);
  check_string "rev is memoized" r (Build_info.rev ());
  let reg = Metrics.create () in
  Build_info.note ~registry:reg ();
  (* Re-noting (a forked shard after Metrics.reset) must be idempotent. *)
  Build_info.note ~registry:reg ();
  let snap = Metrics.snapshot ~registry:reg () in
  match List.assoc_opt "build_info" snap.Metrics.gauges with
  | Some g ->
      Alcotest.(check (float 0.)) "constant 1" 1.0 g.Metrics.value;
      check_bool "max-aggregated across shards" true (g.Metrics.agg = `Max);
      check_bool "labeled with the revision" true
        (g.Metrics.label = Some ("build_info", "rev", r))
  | None -> Alcotest.fail "build_info gauge expected"

let () =
  Alcotest.run "faerie_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters match stats at every pruning level"
            `Quick test_counters_match_stats;
          Alcotest.test_case "metrics:false suppresses the run" `Quick
            test_metrics_suppressed_run;
          Alcotest.test_case "histogram bucket totals" `Quick
            test_histogram_totals;
          Alcotest.test_case "pipeline histogram totals" `Quick
            test_pipeline_histogram_totals;
          Alcotest.test_case "registry mechanics" `Quick test_registry_mechanics;
          Alcotest.test_case "max gauges merge by maximum" `Quick
            test_gauge_max_merge;
          Alcotest.test_case "prometheus escapes hostile help strings" `Quick
            test_prometheus_hostile_help;
          Alcotest.test_case "with_suppressed nests across an exception"
            `Quick test_suppressed_nesting_exception;
        ] );
      ( "explain",
        [
          Alcotest.test_case "waterfall equals stats at every pruning level"
            `Quick test_explain_matches_stats;
          Alcotest.test_case "one sink accumulates across documents" `Quick
            test_explain_sink_reuse_accumulates;
          Alcotest.test_case "disarmed hooks are inert" `Quick
            test_explain_disarmed_is_inert;
          Alcotest.test_case "event jsonl schema" `Quick
            test_explain_jsonl_schema;
        ] );
      ( "perf",
        [
          Alcotest.test_case "quantile estimation" `Quick test_quantile;
          Alcotest.test_case "bench json schema" `Quick test_bench_json_schema;
          Alcotest.test_case "bench json roundtrip" `Quick
            test_bench_json_roundtrip;
          Alcotest.test_case "bench json rejects bad input" `Quick
            test_bench_json_rejects;
          Alcotest.test_case "v1 snapshots are refused" `Quick
            test_bench_json_v1_refused;
          Alcotest.test_case "regression comparison" `Quick
            test_compare_benches;
          Alcotest.test_case "allocation gate" `Quick test_compare_alloc_gate;
        ] );
      ( "prof",
        [
          Alcotest.test_case "disabled means zero Gc.quick_stat calls" `Quick
            test_prof_disabled_zero_captures;
          Alcotest.test_case "enabled populates gc metrics" `Quick
            test_prof_enabled_populates_metrics;
          Alcotest.test_case "aggregation is deterministic across domains"
            `Quick test_prof_parallel_aggregation;
          Alcotest.test_case "folded flame schema" `Quick
            test_flame_folded_locked;
          Alcotest.test_case "flame merges identical stacks across domains"
            `Quick test_flame_merges_across_domains;
        ] );
      ( "shards",
        [
          Alcotest.test_case "4-domain batch merges without losing counts"
            `Quick test_parallel_shard_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans nest and close under injected fault"
            `Quick test_spans_nest_under_fault;
          Alcotest.test_case "drain orders deterministically across domains"
            `Quick test_trace_drain_cross_domain;
        ] );
      ( "schema",
        [
          Alcotest.test_case "metrics jsonl" `Quick test_metrics_jsonl_schema;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_schema;
          Alcotest.test_case "prometheus labeled family" `Quick
            test_prometheus_labeled_family;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
          Alcotest.test_case "trace jsonl" `Quick test_trace_jsonl_schema;
          Alcotest.test_case "trace jsonl exact nanoseconds" `Quick
            test_trace_jsonl_exact_ns;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest merge_permutation_invariant;
          QCheck_alcotest.to_alcotest merge_associative;
          QCheck_alcotest.to_alcotest merge_identity;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "sampling disabled is one atomic load" `Quick
            test_sampling_disabled_zero_captures;
          Alcotest.test_case "sampling is deterministic in (seed, ordinal)"
            `Quick test_sampling_determinism;
          Alcotest.test_case "slowlog disabled is one atomic load" `Quick
            test_slowlog_disabled_zero_captures;
          Alcotest.test_case "slowlog ring keeps the K slowest" `Quick
            test_slowlog_ring;
          Alcotest.test_case "slowlog write-through and flush" `Quick
            test_slowlog_write_through_and_flush;
          Alcotest.test_case "slowlog stage scratch seals per document"
            `Quick test_slowlog_stage_scratch;
          Alcotest.test_case "exemplar capture per bucket" `Quick
            test_exemplar_capture;
          Alcotest.test_case "exemplar merge is max-by-value" `Quick
            test_exemplar_merge_law;
          Alcotest.test_case "exemplar export schema" `Quick
            test_exemplar_export_schema;
          Alcotest.test_case "graft clamps skewed subtrees" `Quick
            test_graft_edge_cases;
          Alcotest.test_case "flame self-time never negative" `Quick
            test_flame_no_negative_self_time;
          Alcotest.test_case "slo spec parsing" `Quick test_slo_parse;
          Alcotest.test_case "fraction_le is the quantile dual" `Quick
            test_slo_fraction_le;
          Alcotest.test_case "slo burn-rate over a delta window" `Quick
            test_slo_assess_burn;
          Alcotest.test_case "build_info gauge" `Quick test_build_info;
        ] );
    ]
