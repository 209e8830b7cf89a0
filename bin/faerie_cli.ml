(* faerie — command-line approximate dictionary-based entity extraction.

   Subcommands:
     extract   find approximate entity matches in documents
     explain   audit the filter cascade on one document
     flame     profile one extraction into a folded-stack flame profile
     stats     report dictionary / index statistics
     regress   compare two bench snapshots for wall-time/alloc regressions
     gen       generate a synthetic corpus (entities + documents)
     index     build and save a binary index for later runs
     serve     long-running NDJSON extraction service (supervised pool)    *)

module Sim = Faerie_sim.Sim
module Extractor = Faerie_core.Extractor
module Types = Faerie_core.Types
module Problem = Faerie_core.Problem
module Parallel = Faerie_core.Parallel
module Outcome = Faerie_core.Outcome
module Explain = Faerie_obs.Explain
module Perf = Faerie_obs.Perf
module Ix = Faerie_index
module Corpus = Faerie_datagen.Corpus
module Bytesize = Faerie_util.Bytesize
module Budget = Faerie_util.Budget
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Slurp a non-seekable channel (stdin, pipes) in 64 KiB chunks. *)
let read_channel ic =
  let chunk = 65536 in
  let bytes = Bytes.create chunk in
  let buf = Buffer.create chunk in
  let rec loop () =
    match input ic bytes 0 chunk with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        loop ()
  in
  loop ()

(* '-' means stderr (match output stays on stdout). *)
let write_sink sink content =
  match sink with
  | "-" -> output_string stderr content
  | path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content)

(* Map expected IO failures (missing file, permission denied, corrupt index)
   to clean one-line errors instead of uncaught exceptions with backtraces. *)
let guard f =
  try f () with
  | Sys_error msg ->
      Printf.eprintf "faerie: %s\n" msg;
      2
  | Ix.Codec.Corrupt msg ->
      Printf.eprintf "faerie: corrupt index: %s\n" msg;
      2
  | Ix.Codec.Truncated { at; len } ->
      Printf.eprintf
        "faerie: truncated index (consistent up to byte %d of %d; torn \
         write?)\n"
        at len;
      2
  | Faerie_util.Wal.Corrupt msg ->
      Printf.eprintf "faerie: corrupt wal: %s\n" msg;
      2
  | Faerie_util.Wal.Truncated { at; len } ->
      Printf.eprintf
        "faerie: truncated wal (whole records up to byte %d of %d)\n" at len;
      2

(* ---- shared arguments ---- *)

let sim_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sim.of_spec s) in
  let print ppf sim = Format.fprintf ppf "%s" (Sim.to_string sim) in
  Arg.conv (parse, print)

let sim_arg =
  let doc =
    "Similarity function and threshold, e.g. ed=2, jac=0.8, eds=0.9."
  in
  Arg.(value & opt sim_conv (Sim.Edit_distance 2) & info [ "s"; "sim" ] ~docv:"FUNC=THRESH" ~doc)

let q_arg =
  let doc = "Gram length for edit distance / edit similarity." in
  Arg.(value & opt int 2 & info [ "q" ] ~docv:"Q" ~doc)

let dict_arg =
  let doc = "Dictionary file: one entity per line." in
  Arg.(required & opt (some file) None & info [ "d"; "dict" ] ~docv:"FILE" ~doc)

let dict_opt_arg =
  let doc = "Dictionary file: one entity per line." in
  Arg.(value & opt (some file) None & info [ "d"; "dict" ] ~docv:"FILE" ~doc)

let index_opt_arg =
  let doc = "Prebuilt binary index (see the 'index' subcommand)." in
  Arg.(value & opt (some file) None & info [ "x"; "index" ] ~docv:"FILE" ~doc)

let require_source dict index =
  if dict = None && index = None then begin
    prerr_endline "faerie: either --dict or --index is required";
    exit 2
  end

(* Build a problem from either a dictionary file or a saved index. *)
let problem_of_source sim q dict index =
  require_source dict index;
  Problem.load ~sim ~q ~dict ~index

(* ---- extract ---- *)

let pruning_conv =
  Arg.enum
    [ ("none", Types.No_prune); ("lazy", Types.Lazy_count);
      ("bucket", Types.Bucket_count); ("binary", Types.Binary_window) ]

let verifier_conv =
  Arg.enum
    [ ("auto", Faerie_sim.Verify.Auto); ("myers", Faerie_sim.Verify.Myers);
      ("banded", Faerie_sim.Verify.Banded) ]

let extract_cmd =
  let docs_arg =
    let doc = "Document files (omit to read one document from stdin)." in
    Arg.(value & pos_all file [] & info [] ~docv:"DOC" ~doc)
  in
  let pruning_arg =
    let doc = "Pruning level: none, lazy, bucket or binary (full Faerie)." in
    Arg.(value & opt pruning_conv Types.Binary_window & info [ "pruning" ] ~doc)
  in
  let verifier_arg =
    let doc =
      "Edit-distance verification engine: auto (bit-parallel with banded \
       fallback), myers or banded."
    in
    Arg.(
      value & opt verifier_conv Faerie_sim.Verify.Auto
      & info [ "verifier" ] ~docv:"ENGINE" ~doc)
  in
  let show_stats_arg =
    let doc = "Print filtering statistics to stderr." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let top_arg =
    let doc = "Report only the K best matches per document." in
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc)
  in
  let select_arg =
    let doc =
      "Resolve overlaps: report a maximum-score set of non-overlapping spans."
    in
    Arg.(value & flag & info [ "select" ] ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-document wall-clock budget in milliseconds. A document that \
       exceeds it yields the partial matches found so far, flagged degraded \
       on stderr."
    in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_doc_bytes_arg =
    let doc =
      "Documents larger than this many bytes are processed with \
       bounded-memory chunked extraction (results complete, flagged \
       degraded on stderr)."
    in
    Arg.(
      value & opt (some int) None & info [ "max-doc-bytes" ] ~docv:"BYTES" ~doc)
  in
  let keep_going_arg =
    let doc =
      "Keep processing remaining documents after a document fails; the exit \
       status is non-zero only if every document failed."
    in
    Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)
  in
  let metrics_arg =
    let doc =
      "Write a JSON-lines snapshot of the metrics registry after the run, to \
       $(docv) ('-' or no value: stderr)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Record trace spans during the run and write them as JSON lines to \
       $(docv) ('-' or no value: stderr)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_format_arg =
    let doc =
      "Format for the --metrics snapshot: jsonl (JSON lines) or prom \
       (Prometheus text exposition)."
    in
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("prom", `Prom) ]) `Jsonl
      & info [ "metrics-format" ] ~docv:"FMT" ~doc)
  in
  let explain_arg =
    let doc =
      "Audit the filter cascade: with no value (or '-') print a human \
       waterfall report to stderr after the run; with $(docv), write the \
       JSONL event dump there instead."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "explain" ] ~docv:"FILE" ~doc)
  in
  let run sim q dict_file index_file doc_files pruning verifier show_stats top
      select timeout_ms max_doc_bytes keep_going metrics metrics_format trace
      explain =
    guard @@ fun () ->
    if trace <> None then Faerie_obs.Trace.enable ();
    let problem = problem_of_source sim q dict_file index_file in
    let dict = Problem.dictionary problem in
    let extractor = Extractor.of_problem problem in
    (* One sink audits the whole run; per-document [Doc] events delimit
       documents in the JSONL dump. *)
    let sink = match explain with None -> None | Some _ -> Some (Explain.create ()) in
    let budget = { Budget.spec_unlimited with timeout_ms; max_bytes = max_doc_bytes } in
    let n_docs = ref 0 and n_failed = ref 0 in
    (* Best-first ordering used by --top (same as Topk.top_k): better score
       first, ties toward the earlier, shorter, lower-id match. *)
    let best_first (a : Types.char_match) (b : Types.char_match) =
      let c = Faerie_sim.Verify.Score.compare a.Types.c_score b.Types.c_score in
      if c <> 0 then c
      else
        compare
          (a.Types.c_start, a.Types.c_len, a.Types.c_entity)
          (b.Types.c_start, b.Types.c_len, b.Types.c_entity)
    in
    let positional (a : Types.char_match) (b : Types.char_match) =
      compare
        (a.Types.c_start, a.Types.c_len, a.Types.c_entity)
        (b.Types.c_start, b.Types.c_len, b.Types.c_entity)
    in
    let take k l =
      List.filteri (fun i _ -> i < k) l
    in
    let print_matches name text ms =
      let normalized = Faerie_tokenize.Tokenizer.normalize text in
      List.iter
        (fun (m : Types.char_match) ->
          let e = Ix.Dictionary.entity dict m.Types.c_entity in
          Printf.printf "%s\t%d\t%d\t%s\t%s\t%s\n" name m.Types.c_start
            (m.Types.c_start + m.Types.c_len)
            (Format.asprintf "%a" Faerie_sim.Verify.Score.pp m.Types.c_score)
            e.Ix.Entity.raw
            (String.sub normalized m.Types.c_start m.Types.c_len))
        (List.sort positional ms)
    in
    let char_match_of_result (r : Extractor.result) =
      {
        Types.c_entity = r.Extractor.entity_id;
        c_start = r.Extractor.start_char;
        c_len = r.Extractor.len_chars;
        c_score = r.Extractor.score;
      }
    in
    (* Returns [true] when processing may continue with the next document. *)
    let process idx name text =
      incr n_docs;
      let opts =
        {
          Extractor.default_opts with
          pruning;
          verifier;
          budget;
          doc_id = idx;
          explain = sink;
        }
      in
      let report = Extractor.run ~opts extractor (`Text text) in
      match report.Extractor.outcome with
      | Outcome.Failed err ->
          incr n_failed;
          Printf.eprintf "faerie: %s: %s\n%!" name
            (Outcome.error_to_string err);
          keep_going
      | Outcome.Ok rs | Outcome.Degraded (rs, _) as outcome ->
          (match outcome with
          | Outcome.Degraded (_, why) ->
              Printf.eprintf "faerie: %s: %s\n%!" name
                (Outcome.degradation_to_string why)
          | _ -> ());
          let ms = List.map char_match_of_result rs in
          let ms = match top with Some k -> take k (List.sort best_first ms) | None -> ms in
          let ms = if select then Faerie_core.Span_select.select ms else ms in
          print_matches name text ms;
          if show_stats then
            Format.eprintf "%s: %a@." name Types.pp_stats
              report.Extractor.stats;
          true
    in
    (match doc_files with
    | [] -> ignore (process 0 "<stdin>" (read_channel stdin))
    | files ->
        let rec loop idx = function
          | [] -> ()
          | f :: rest ->
              if process idx f (read_file f) then loop (idx + 1) rest
        in
        loop 0 files);
    (match (explain, sink) with
    | Some dest, Some s ->
        let name_of id = (Ix.Dictionary.entity dict id).Ix.Entity.raw in
        if dest = "-" then output_string stderr (Explain.render ~name_of s)
        else write_sink dest (Explain.to_jsonl s)
    | _ -> ());
    (match metrics with
    | None -> ()
    | Some dest ->
        let content =
          match metrics_format with
          | `Jsonl -> Faerie_obs.Metrics.to_jsonl ()
          | `Prom -> Faerie_obs.Metrics.to_prometheus ()
        in
        write_sink dest content);
    (match trace with
    | None -> ()
    | Some dest ->
        write_sink dest (Faerie_obs.Trace.to_jsonl (Faerie_obs.Trace.drain ())));
    if !n_failed = 0 then 0
    else if keep_going && !n_failed < !n_docs then 0
    else 1
  in
  let doc = "Extract approximate entity matches from documents." in
  Cmd.v
    (Cmd.info "extract" ~doc)
    Term.(
      const run $ sim_arg $ q_arg $ dict_opt_arg $ index_opt_arg $ docs_arg
      $ pruning_arg $ verifier_arg $ show_stats_arg $ top_arg $ select_arg
      $ timeout_arg $ max_doc_bytes_arg $ keep_going_arg $ metrics_arg
      $ metrics_format_arg $ trace_arg $ explain_arg)

(* ---- explain ---- *)

let explain_cmd =
  let dict_pos =
    let doc = "Dictionary file: one entity per line." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DICT" ~doc)
  in
  let doc_pos =
    let doc = "Document file to audit." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DOC" ~doc)
  in
  let pruning_arg =
    let doc = "Pruning level: none, lazy, bucket or binary (full Faerie)." in
    Arg.(value & opt pruning_conv Types.Binary_window & info [ "pruning" ] ~doc)
  in
  let jsonl_arg =
    let doc =
      "Dump the raw event log as JSON lines instead of the waterfall report, \
       to $(docv) ('-' or no value: stdout)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Most-expensive entities listed in the waterfall report." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc)
  in
  let run sim q pruning dict_file doc_file jsonl top =
    guard @@ fun () ->
    let problem = Problem.create ~sim ~q (Problem.read_entities dict_file) in
    let extractor = Extractor.of_problem problem in
    let sink = Explain.create () in
    let opts = { Extractor.default_opts with pruning; explain = Some sink } in
    let report = Extractor.run ~opts extractor (`Text (read_file doc_file)) in
    (match report.Extractor.outcome with
    | Outcome.Failed err ->
        Printf.eprintf "faerie: %s\n" (Outcome.error_to_string err)
    | Outcome.Degraded (_, why) ->
        Printf.eprintf "faerie: %s\n" (Outcome.degradation_to_string why)
    | Outcome.Ok _ -> ());
    let dict = Problem.dictionary problem in
    let name_of id = (Ix.Dictionary.entity dict id).Ix.Entity.raw in
    (match jsonl with
    | Some "-" -> print_string (Explain.to_jsonl sink)
    | Some path -> write_sink path (Explain.to_jsonl sink)
    | None -> print_string (Explain.render ~top ~name_of sink));
    match report.Extractor.outcome with Outcome.Failed _ -> 1 | _ -> 0
  in
  let doc =
    "Audit the filter cascade on one document: per-filter selectivity \
     waterfall, prune reasons, verification outcomes."
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      const run $ sim_arg $ q_arg $ pruning_arg $ dict_pos $ doc_pos
      $ jsonl_arg $ top_arg)

(* ---- flame ---- *)

let flame_cmd =
  let dict_pos =
    let doc = "Dictionary file: one entity per line." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DICT" ~doc)
  in
  let doc_pos =
    let doc = "Document file to profile." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DOC" ~doc)
  in
  let pruning_arg =
    let doc = "Pruning level: none, lazy, bucket or binary (full Faerie)." in
    Arg.(value & opt pruning_conv Types.Binary_window & info [ "pruning" ] ~doc)
  in
  let folded_arg =
    let doc =
      "Write the folded-stack profile ('stack;stack SELF_NS' lines, \
       consumable by flamegraph.pl or speedscope) to $(docv) ('-': stderr)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Rows in the self-time table printed to stdout." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let run sim q pruning dict_file doc_file folded top =
    guard @@ fun () ->
    let module Trace = Faerie_obs.Trace in
    let module Prof = Faerie_obs.Prof in
    Trace.enable ();
    Prof.enable ();
    let problem = Problem.create ~sim ~q (Problem.read_entities dict_file) in
    let extractor = Extractor.of_problem problem in
    ignore (Trace.drain ());
    let opts = { Extractor.default_opts with pruning } in
    let report = Extractor.run ~opts extractor (`Text (read_file doc_file)) in
    (match report.Extractor.outcome with
    | Outcome.Failed err ->
        Printf.eprintf "faerie: %s\n" (Outcome.error_to_string err)
    | Outcome.Degraded (_, why) ->
        Printf.eprintf "faerie: %s\n" (Outcome.degradation_to_string why)
    | Outcome.Ok _ -> ());
    let frames = Prof.flame_of_spans (Trace.drain ()) in
    print_string (Prof.render_top ~top frames);
    (match folded with
    | None -> ()
    | Some dest -> write_sink dest (Prof.to_folded frames));
    match report.Extractor.outcome with Outcome.Failed _ -> 1 | _ -> 0
  in
  let doc =
    "Profile one extraction: aggregate its trace spans into a flame profile \
     (top self-time table on stdout, folded stacks via --folded)."
  in
  Cmd.v
    (Cmd.info "flame" ~doc)
    Term.(
      const run $ sim_arg $ q_arg $ pruning_arg $ dict_pos $ doc_pos
      $ folded_arg $ top_arg)

(* ---- regress ---- *)

let regress_cmd =
  let old_pos =
    let doc = "Baseline bench snapshot (BENCH_faerie.json)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)
  in
  let new_pos =
    let doc = "Current bench snapshot to compare against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)
  in
  let max_ratio_arg =
    let doc =
      "Maximum tolerated wall-time ratio current/baseline per exhibit."
    in
    Arg.(value & opt float 1.5 & info [ "max-ratio" ] ~docv:"R" ~doc)
  in
  let max_alloc_ratio_arg =
    let doc =
      "Also gate allocation: maximum tolerated minor-words ratio \
       current/baseline per exhibit (requires gc blocks in the baseline's \
       exhibits; v1 baselines are exempt)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "max-alloc-ratio" ] ~docv:"R" ~doc)
  in
  let run old_file new_file max_ratio max_alloc_ratio =
    guard @@ fun () ->
    let load path =
      match Perf.bench_of_json (read_file path) with
      | Ok b -> b
      | Error e ->
          Printf.eprintf "faerie: %s: %s\n" path e;
          exit 2
    in
    let baseline = load old_file in
    let current = load new_file in
    let c =
      Perf.compare_benches ~max_ratio ?max_alloc_ratio ~baseline ~current ()
    in
    print_string (Perf.render_comparison ~max_ratio ?max_alloc_ratio c);
    if c.Perf.any_regressed then 1 else 0
  in
  let doc =
    "Compare two bench --json snapshots; exit 1 when any exhibit's wall time \
     regressed beyond --max-ratio or its allocation beyond --max-alloc-ratio \
     (exit 2 on malformed snapshots)."
  in
  Cmd.v
    (Cmd.info "regress" ~doc)
    Term.(const run $ old_pos $ new_pos $ max_ratio_arg $ max_alloc_ratio_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run sim q dict_file =
    guard @@ fun () ->
    let entities = Problem.read_entities dict_file in
    let problem = Problem.create ~sim ~q entities in
    let dict = Problem.dictionary problem in
    let index = Problem.index problem in
    let n = Ix.Dictionary.size dict in
    Printf.printf "entities:        %d\n" n;
    Printf.printf "function:        %s (q=%d)\n" (Sim.to_string sim) q;
    Printf.printf "distinct tokens: %d\n"
      (Faerie_tokenize.Interner.size (Ix.Dictionary.interner dict));
    Printf.printf "postings:        %d\n" (Ix.Inverted_index.n_postings index);
    Printf.printf "non-empty lists: %d\n" (Ix.Inverted_index.n_lists index);
    Printf.printf "index size:      %s\n"
      (Bytesize.to_string (Ix.Inverted_index.heap_bytes index));
    Printf.printf "fallback path:   %d entities\n"
      (List.length (Problem.fallback_entities problem));
    Printf.printf "substring token range: [%d, %d]\n"
      (Problem.global_lower problem) (Problem.global_upper problem);
    0
  in
  let doc = "Report dictionary and inverted-index statistics." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ sim_arg $ q_arg $ dict_arg)

(* ---- index ---- *)

let index_cmd =
  let out_arg =
    let doc = "Output path for the binary index." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run sim q dict_file out =
    guard @@ fun () ->
    let problem = Problem.create ~sim ~q (Problem.read_entities dict_file) in
    Ix.Codec.save (Problem.dictionary problem) (Problem.index problem) out;
    let bytes = (Unix.stat out).Unix.st_size in
    Printf.printf "wrote %s (%s, %d entities, %d postings)\n" out
      (Bytesize.to_string bytes)
      (Ix.Dictionary.size (Problem.dictionary problem))
      (Ix.Inverted_index.n_postings (Problem.index problem));
    0
  in
  let doc =
    "Build a dictionary index and save it for later 'extract --index' runs."
  in
  Cmd.v (Cmd.info "index" ~doc) Term.(const run $ sim_arg $ q_arg $ dict_arg $ out_arg)

(* ---- serve ---- *)

module Supervisor = Faerie_core.Supervisor
module Server = Faerie_core.Server
module Wal = Faerie_util.Wal
module Slo = Faerie_obs.Slo

(* --inject SEED:site=rate[,site=rate...] — arm the deterministic fault
   registry for the whole serve session (testing hook; the serve smoke CI
   job and the quarantine tests drive it). *)
let inject_conv =
  let parse s =
    let fail () = Error (`Msg "expected SEED:site=rate[,site=rate...]") in
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i -> (
        let seed_s = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt seed_s with
        | None -> fail ()
        | Some seed ->
            let rates =
              List.fold_left
                (fun acc part ->
                  match (acc, String.split_on_char '=' part) with
                  | Some acc, [ site; rate ] -> (
                      match float_of_string_opt rate with
                      | Some r -> Some ((site, r) :: acc)
                      | None -> None)
                  | _ -> None)
                (Some []) (String.split_on_char ',' rest)
            in
            (match rates with
            | Some rates ->
                Ok { Faerie_util.Fault.seed; rates = List.rev rates }
            | None -> fail ()))
  in
  let print ppf (c : Faerie_util.Fault.config) =
    Format.fprintf ppf "%d:%s" c.Faerie_util.Fault.seed
      (String.concat ","
         (List.map
            (fun (s, r) -> Printf.sprintf "%s=%g" s r)
            c.Faerie_util.Fault.rates))
  in
  Arg.conv (parse, print)

let serve_cmd =
  let pruning_arg =
    let doc = "Pruning level: none, lazy, bucket or binary (full Faerie)." in
    Arg.(value & opt pruning_conv Types.Binary_window & info [ "pruning" ] ~doc)
  in
  let domains_arg =
    let doc = "Worker domains in the supervised pool." in
    Arg.(
      value
      & opt int Supervisor.default_config.Supervisor.domains
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc = "Max re-attempts per document after a transient failure." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc =
      "Base retry backoff in milliseconds (exponential with full jitter); 0 \
       disables backoff sleeps."
    in
    Arg.(value & opt int 10 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let backoff_max_arg =
    let doc = "Cap on the retry backoff window in milliseconds." in
    Arg.(value & opt int 1000 & info [ "backoff-max-ms" ] ~docv:"MS" ~doc)
  in
  let quarantine_arg =
    let doc =
      "Dead-letter NDJSON file: documents that fail every retry are appended \
       here as self-contained repros (replayable with fuzz.exe --replay)."
    in
    Arg.(
      value & opt (some string) None & info [ "quarantine" ] ~docv:"FILE" ~doc)
  in
  let shed_arg =
    let doc =
      "Enable load shedding: refuse documents when the admission queue is \
       full, and refuse queued documents whose deadline already expired, \
       instead of blocking / running them."
    in
    Arg.(value & flag & info [ "shed" ] ~doc)
  in
  let timeout_arg =
    let doc =
      "Default per-document wall-clock budget in milliseconds (a request's \
       own timeout_ms field overrides it)."
    in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_doc_bytes_arg =
    let doc = "Chunked-extraction threshold, as in extract." in
    Arg.(
      value & opt (some int) None & info [ "max-doc-bytes" ] ~docv:"BYTES" ~doc)
  in
  let queue_arg =
    let doc = "Admission queue capacity." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let inject_arg =
    let doc =
      "Arm deterministic fault injection: SEED:site=rate[,site=rate...] \
       (sites: tokenize, heap_merge, verify, codec_io, supervisor_worker, \
       codec_rename, serve_decode, shard_frame, shard_stats, wal_append, \
       wal_replay, compact_save, compact_commit). Testing hook."
    in
    Arg.(
      value & opt (some inject_conv) None & info [ "inject" ] ~docv:"SPEC" ~doc)
  in
  let shards_arg =
    let doc =
      "Run as a sharded cluster: partition the dictionary into N contiguous \
       entity-id ranges, fork one supervised shard process per range, fan \
       each document to all shards and merge the match sets. 0 (default) \
       serves from a single in-process pool."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let shard_timeout_arg =
    let doc =
      "Per-shard response deadline in milliseconds (cluster mode): a shard \
       that misses it is killed and restarted, and the document retried. 0 \
       disables the deadline."
    in
    Arg.(
      value & opt int 0 & info [ "shard-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let metrics_format_arg =
    let doc =
      "Rendering of metrics snapshots in {\"op\":\"stats\"} admin responses \
       and --stats-interval-s ticks: jsonl embeds a structured \"metrics\" \
       object, prometheus embeds the Prometheus text exposition as a \
       \"prometheus\" string."
    in
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("jsonl", `Jsonl);
               ("prometheus", `Prometheus);
               ("prom", `Prometheus);
             ])
          `Jsonl
      & info [ "metrics-format" ] ~docv:"FMT" ~doc)
  in
  let stats_interval_arg =
    let doc =
      "Emit a metrics snapshot line to stderr every N seconds (cluster mode \
       first pulls and merges every shard's registry). 0 (default) disables \
       the ticker."
    in
    Arg.(value & opt int 0 & info [ "stats-interval-s" ] ~docv:"N" ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Head-sample a fraction of requests for tracing: the decision is \
       deterministic in the arrival ordinal (a 4-shard cluster samples \
       exactly the ordinals a 1-shard run would), sampled requests carry a \
       trace id (ordinal+1) into span buffers, slowlog records and metric \
       exemplars. 0 (default) disables sampling."
    in
    Arg.(
      value & opt float 0. & info [ "trace-sample-rate" ] ~docv:"RATE" ~doc)
  in
  let trace_seed_arg =
    let doc =
      "Seed for the per-ordinal sampling hash: changing it selects a \
       different (still deterministic) subset of ordinals at the same \
       --trace-sample-rate."
    in
    Arg.(value & opt int 0 & info [ "trace-seed" ] ~docv:"SEED" ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Slow-query threshold in milliseconds: requests at or over it are \
       written through to the --slowlog file immediately as self-contained \
       replayable NDJSON repros (fuzz.exe --replay). Omitted, the slowlog \
       (if armed by --slowlog) keeps only the top-K ring, flushed at \
       shutdown."
    in
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let slowlog_file_arg =
    let doc =
      "Slow-query log NDJSON file (O_APPEND, one write per record). Arms \
       slow-query capture even without --slow-ms (ring-only, flushed at \
       shutdown)."
    in
    Arg.(
      value & opt (some string) None & info [ "slowlog" ] ~docv:"FILE" ~doc)
  in
  let slowlog_k_arg =
    let doc = "Capacity of the K-slowest capture ring." in
    Arg.(value & opt int 8 & info [ "slowlog-k" ] ~docv:"K" ~doc)
  in
  let slo_arg =
    let doc =
      "Service-level objectives, e.g. p99=50ms,avail=99.9: each stats tick \
       assesses attainment and error-budget burn rate over the window since \
       the previous tick; a burn over 1.0 degrades {\"op\":\"health\"} \
       status to slo_burn."
    in
    Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"SPEC" ~doc)
  in
  let wal_arg =
    let doc =
      "Write-ahead log for online dictionary mutations: every \
       {\"op\":\"dict_add\"} / {\"op\":\"dict_remove\"} is fsynced here \
       before it is applied, and the log is replayed at startup and on \
       every reload — a crash loses no accepted mutation. \
       {\"op\":\"compact\"} folds the log into the --index snapshot and \
       truncates it."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE" ~doc)
  in
  let run sim q dict index pruning domains retries backoff_ms backoff_max_ms
      quarantine shed timeout_ms max_doc_bytes queue inject shards
      shard_timeout_ms metrics_format stats_interval_s trace_sample_rate
      trace_seed slow_ms slowlog slowlog_k slo_spec wal =
    guard @@ fun () ->
    let slo =
      match slo_spec with
      | None -> Slo.none
      | Some spec -> (
          match Slo.parse spec with
          | Ok o -> o
          | Error msg ->
              Printf.eprintf "faerie: bad --slo spec: %s\n" msg;
              exit 2)
    in
    require_source dict index;
    (* A client that disconnects mid-response must look like EPIPE on the
       stream, not kill the server with SIGPIPE. SIGHUP (reload) and
       SIGALRM (stats tick) only set flags the request loop polls: a tick
       may need shard round-trips, nothing a handler may do, and a timer
       domain would keep a cluster coordinator from forking shards. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let flag_on signal =
      let flag = Atomic.make false in
      (try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set flag true))
       with Invalid_argument _ | Sys_error _ -> ());
      flag
    in
    let reload_requested = flag_on Sys.sighup in
    let tick_requested =
      if stats_interval_s <= 0 then Atomic.make false
      else begin
        let flag = flag_on Sys.sigalrm in
        let s = float_of_int stats_interval_s in
        (try
           ignore
             (Unix.setitimer Unix.ITIMER_REAL
                { Unix.it_interval = s; it_value = s })
         with Unix.Unix_error _ -> ());
        flag
      end
    in
    let retry = { Supervisor.retries; backoff_ms; backoff_max_ms; seed = 0 } in
    let pool =
      { Supervisor.domains; retry; queue_capacity = queue; quarantine; shed;
        shard = None }
    in
    let shard_timeout_ms =
      if shard_timeout_ms > 0 then Some shard_timeout_ms else None
    in
    Server.main
      { Faerie_core.Backend.sim; q; dict; index; pruning; timeout_ms;
        max_doc_bytes; pool; shards; shard_timeout_ms; metrics_format;
        stats_interval_s; trace_sample_rate; trace_seed; slow_ms; slowlog;
        slowlog_k; slo; wal; inject; reload_requested; tick_requested }
  in
  let doc =
    "Long-running extraction service: NDJSON requests on stdin \
     ({\"text\":..., \"id\":..., \"timeout_ms\":...}), one NDJSON response \
     per document on stdout, supervised worker pool with retry, quarantine \
     and load shedding, hot index reload on SIGHUP or --index mtime change. \
     With --shards N the dictionary is range-partitioned across N forked \
     shard processes, each running its own supervised pool; responses merge \
     per-shard match sets and degrade to partial results when a shard is \
     written off. A summary JSON line goes to stderr at EOF."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ sim_arg $ q_arg $ dict_opt_arg $ index_opt_arg $ pruning_arg
      $ domains_arg $ retries_arg $ backoff_arg $ backoff_max_arg
      $ quarantine_arg $ shed_arg $ timeout_arg $ max_doc_bytes_arg $ queue_arg
      $ inject_arg $ shards_arg $ shard_timeout_arg $ metrics_format_arg
      $ stats_interval_arg $ trace_sample_arg $ trace_seed_arg $ slow_ms_arg
      $ slowlog_file_arg $ slowlog_k_arg $ slo_arg $ wal_arg)

(* ---- dict: offline dynamic-dictionary tooling ---- *)

let dict_group_cmd =
  let wal_req_arg =
    let doc = "Write-ahead log file (created if missing)." in
    Arg.(required & opt (some string) None & info [ "wal" ] ~docv:"FILE" ~doc)
  in
  let entities_pos =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ENTITY" ~doc:"Raw entity string(s).")
  in
  let append op_name mk =
    let run wal_path entities =
      guard @@ fun () ->
      let w = Wal.openfile wal_path in
      Fun.protect
        ~finally:(fun () -> Wal.close w)
        (fun () -> List.iter (fun raw -> Wal.append w (mk raw)) entities);
      Printf.printf "appended %d %s mutation(s) to %s\n" (List.length entities)
        op_name wal_path;
      0
    in
    Term.(const run $ wal_req_arg $ entities_pos)
  in
  let add_cmd =
    Cmd.v
      (Cmd.info "add"
         ~doc:
           "Append dictionary-add mutations to a write-ahead log. A serving \
            process with the same --wal applies them at startup or on SIGHUP \
            reload; 'dict compact' folds them into an index snapshot.")
      (append "add" (fun raw -> Wal.Add raw))
  in
  let remove_cmd =
    Cmd.v
      (Cmd.info "remove"
         ~doc:"Append dictionary-remove mutations to a write-ahead log.")
      (append "remove" (fun raw -> Wal.Remove raw))
  in
  let compact_cmd =
    let index_req_arg =
      let doc = "Index snapshot to fold the WAL into (rewritten atomically)." in
      Arg.(required & opt (some file) None & info [ "index" ] ~docv:"FILE" ~doc)
    in
    let run sim wal_path index_path =
      guard @@ fun () ->
      let replayed = ref (0, Wal.Clean) in
      let live =
        Faerie_core.Live_dict.create ~sim
          ~replay:(fun apply -> replayed := Wal.replay wal_path apply)
          (snd (Ix.Codec.load index_path))
      in
      let n, tail = !replayed in
      (match tail with
      | Wal.Torn { at; len } ->
          Printf.eprintf
            "faerie: dict: wal torn tail repaired (whole records up to byte \
             %d of %d)\n"
            at len;
          Wal.repair wal_path tail
      | Wal.Clean -> ());
      if n = 0 then begin
        print_endline "wal empty; nothing to fold";
        0
      end
      else begin
        let p = Faerie_core.Live_dict.fold live in
        Ix.Codec.save (Problem.dictionary p) (Problem.index p) index_path;
        let w = Wal.openfile wal_path in
        Fun.protect ~finally:(fun () -> Wal.close w) (fun () -> Wal.truncate w);
        Printf.printf "folded %d mutation(s) into %s (%d entities)\n" n
          index_path
          (Faerie_core.Live_dict.live_count live);
        0
      end
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Fold a mutation WAL into an index snapshot: replay the log over \
            the index's Delta overlay, rebuild a fresh compressed snapshot, \
            save it atomically in place and truncate the WAL. Crash-safe: \
            interrupted anywhere, index + WAL still replay to the same \
            dictionary.")
      Term.(const run $ sim_arg $ wal_req_arg $ index_req_arg)
  in
  Cmd.group
    (Cmd.info "dict"
       ~doc:
         "Dynamic-dictionary tooling: append add/remove mutations to a \
          write-ahead log and fold them into an index snapshot.")
    [ add_cmd; remove_cmd; compact_cmd ]

(* ---- gen ---- *)

let gen_cmd =
  let profile_arg =
    let doc = "Corpus profile: dblp, pubmed or webpage." in
    Arg.(value & opt (enum [ ("dblp", `Dblp); ("pubmed", `Pubmed); ("webpage", `Webpage) ]) `Dblp & info [ "profile" ] ~doc)
  in
  let n_entities_arg =
    Arg.(value & opt int 1000 & info [ "entities" ] ~docv:"N" ~doc:"Number of entities.")
  in
  let n_docs_arg =
    Arg.(value & opt int 100 & info [ "documents" ] ~docv:"N" ~doc:"Number of documents.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let out_arg =
    Arg.(value & opt string "corpus" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run profile n_entities n_documents seed out =
    guard @@ fun () ->
    let corpus =
      match profile with
      | `Dblp -> Corpus.dblp ~seed ~n_entities ~n_documents ()
      | `Pubmed -> Corpus.pubmed ~seed ~n_entities ~n_documents ()
      | `Webpage -> Corpus.webpage ~seed ~n_entities ~n_documents ()
    in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let write_file path f =
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)
    in
    write_file (Filename.concat out "entities.txt") (fun oc ->
        Array.iter (fun e -> output_string oc (e ^ "\n")) corpus.Corpus.entities);
    let docs_dir = Filename.concat out "docs" in
    if not (Sys.file_exists docs_dir) then Sys.mkdir docs_dir 0o755;
    Array.iteri
      (fun i (d : Corpus.document) ->
        write_file
          (Filename.concat docs_dir (Printf.sprintf "doc%04d.txt" i))
          (fun oc -> output_string oc d.Corpus.text))
      corpus.Corpus.documents;
    Format.printf "wrote %s: %a@." out Corpus.pp_stats (Corpus.stats corpus);
    0
  in
  let doc = "Generate a synthetic corpus (entities.txt + docs/)." in
  Cmd.v
    (Cmd.info "gen" ~doc)
    Term.(const run $ profile_arg $ n_entities_arg $ n_docs_arg $ seed_arg $ out_arg)

let () =
  let doc = "Approximate dictionary-based entity extraction (Faerie)." in
  let info = Cmd.info "faerie" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            extract_cmd; explain_cmd; flame_cmd; stats_cmd; regress_cmd;
            gen_cmd; index_cmd; serve_cmd; dict_group_cmd;
          ]))
