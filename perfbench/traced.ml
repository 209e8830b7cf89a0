(* The traced run: replay the exact request sequence one served run sent,
   in-process, through each layer's public functions, with spans recorded
   here around those calls. Produces the per-layer metrics and the counts
   that must equal the server's own {"op":"stats"} counters. *)

module W = Workload
module Ix = Faerie_index
module Tk = Faerie_tokenize
module Sim = Faerie_sim
module Heaps = Faerie_heaps
module Dynarray = Faerie_util.Dynarray
open Faerie_core

let now = Faerie_obs.Trace.now_ns

let elapsed t0 = Int64.to_float (Int64.sub (now ()) t0)

let div a b = if b = 0. then 0. else a /. b

let fi = float_of_int

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

let pct xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

(* Work counts, named after the server counters they must equal. *)
type counts = {
  mutable tokenize_tokens : int;
  mutable heap_pops : int;
  mutable candidates_generated : int;
  mutable verify_calls : int;
  mutable fallback_verify_calls : int;
  mutable matches_verified : int;
}

let count_fields c =
  [
    ("tokenize_tokens", c.tokenize_tokens);
    ("heap_pops", c.heap_pops);
    ("candidates_generated", c.candidates_generated);
    ("verify_calls", c.verify_calls);
    ("fallback_verify_calls", c.fallback_verify_calls);
    ("matches_verified", c.matches_verified);
  ]

(* Scored substrings Fallback.run visits for a [n]-character text: the
   same loop bounds it uses. *)
let fallback_calls p n =
  let dict = Problem.dictionary p in
  List.fold_left
    (fun acc id ->
      let e = (Ix.Dictionary.entity dict id).Ix.Entity.text in
      let lo, hi =
        Fallback.char_length_bounds (Problem.sim p) ~e_chars:(String.length e)
      in
      let acc = ref acc in
      for len = lo to min hi n do
        acc := !acc + (n - len + 1)
      done;
      !acc)
    0
    (Problem.fallback_entities p)

type item = Text of { ord : int; line : string; text : string } | Mutation of W.op

let items (inp : W.inputs) muts (reqs : Client.req array) =
  Array.map
    (fun (r : Client.req) ->
      match r.Client.kind with
      | Client.KDoc d ->
          Text { ord = r.Client.ord; line = inp.W.doc_lines.(d); text = inp.W.docs.(d) }
      | Client.KProbe k ->
          let text = W.probe_text muts (W.op muts k) in
          Text { ord = r.Client.ord; line = W.text_line text; text }
      | Client.KMut k -> Mutation (W.op muts k))
    reqs

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  counts : counts;
  spans : Span.t;
}

(* ---- Cluster: submit wall against the in-process run of the same doc.
   Runs first: Cluster.create forks, which OCaml 5 refuses once any
   domain has been spawned (the Supervisor pass below spawns one). ---- *)
let cluster_pass (inp : W.inputs) base texts =
  let w = inp.W.w in
  let t0 = now () in
  let cl =
    Cluster.create
      ~config:{ Cluster.default_config with shards = 2 }
      ~sim:w.W.sim ~q:w.W.q
      (fun () -> Array.to_list inp.W.entities)
  in
  let spawn_s = elapsed t0 /. 1e9 in
  let subs = ref [] and over = ref [] in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cl)
    (fun () ->
      List.iteri
        (fun i text ->
          let t0 = now () in
          ignore (Extractor.run base (`Text text));
          let ex_ns = elapsed t0 in
          let t0 = now () in
          ignore (Cluster.submit cl ~doc:i text);
          let sub_ns = elapsed t0 in
          subs := sub_ns :: !subs;
          over := (sub_ns -. ex_ns) :: !over)
        texts);
  let mean = div (List.fold_left ( +. ) 0. !subs) (fi (List.length !subs)) in
  (spawn_s, median !subs, median !over, mean)

(* ---- Frame + Shard codec: one Doc frame out and one Result frame back
   per shard, over a real pipe. ---- *)
let frame_pass base texts =
  let rfd, wfd = Unix.pipe ~cloexec:true () in
  let reader = Serve_proto.Frame.reader rfd in
  let n_ent = Array.length (Ix.Dictionary.entities (Problem.dictionary (Extractor.problem base))) in
  let ranges = Shard_plan.partition ~n_entities:n_ent ~shards:2 in
  let rt = ref [] and bytes = ref 0 and docs = ref 0 in
  let read_frame () =
    match Serve_proto.Frame.read reader with
    | `Frame f -> f
    | `Eof | `Timeout | `Corrupt _ -> failwith "frame pass: bad frame"
  in
  List.iteri
    (fun i text ->
      if String.length text < 60_000 then begin
        incr docs;
        let out = Parallel.outcome_of_report (Extractor.run base (`Text text)) in
        Array.iter
          (fun (range : Shard_plan.range) ->
            let part =
              match out with
              | Outcome.Ok ms ->
                  Outcome.Ok
                    (List.filter
                       (fun (m : Types.char_match) ->
                         m.Types.c_entity >= range.Shard_plan.lo
                         && m.Types.c_entity < range.Shard_plan.hi)
                       ms)
              | o -> o
            in
            let t0 = now () in
            let m =
              Serve_proto.Shard.msg_to_string
                (Serve_proto.Shard.Doc
                   { doc = i; attempt = 0; timeout_ms = None; text; trace = None })
            in
            Serve_proto.Frame.write wfd m;
            ignore (Serve_proto.Shard.msg_of_string (read_frame ()));
            let r =
              Serve_proto.Shard.reply_to_string
                (Serve_proto.Shard.Result
                   { doc = i; gen = 0; outcome = part; spans = []; stages = [] })
            in
            Serve_proto.Frame.write wfd r;
            ignore (Serve_proto.Shard.reply_of_string (read_frame ()));
            rt := elapsed t0 :: !rt;
            bytes := !bytes + 8 + String.length m + String.length r)
          ranges
      end)
    texts;
  Unix.close rfd;
  Unix.close wfd;
  (div (List.fold_left ( +. ) 0. !rt) (fi (List.length !rt)), div (fi !bytes) (fi !docs))

(* ---- Supervisor: admission-queue wait, from submit to the extractor
   getter call that starts the attempt (one worker domain, so getter
   calls arrive in submit order), with 16 documents outstanding. ---- *)
let supervisor_pass base texts ~window =
  let texts = Array.of_list texts in
  let n = Array.length texts in
  let submitted = Array.make n 0L and started = Array.make n 0L in
  let k = Atomic.make 0 in
  let pool =
    Supervisor.create
      ~config:{ Supervisor.default_config with domains = 1; queue_capacity = 64 }
      (fun () ->
        let i = Atomic.fetch_and_add k 1 in
        if i < n then started.(i) <- now ();
        base)
  in
  let m = Mutex.create () and c = Condition.create () and outstanding = ref 0 in
  Fun.protect
    ~finally:(fun () -> Supervisor.shutdown pool)
    (fun () ->
      Array.iteri
        (fun i text ->
          Mutex.lock m;
          while !outstanding >= window do
            Condition.wait c m
          done;
          incr outstanding;
          Mutex.unlock m;
          submitted.(i) <- now ();
          ignore
            (Supervisor.submit pool ~doc_id:i text ~on_done:(fun _ ->
                 Mutex.lock m;
                 decr outstanding;
                 Condition.signal c;
                 Mutex.unlock m)))
        texts;
      Supervisor.drain pool);
  let waits =
    List.init n (fun i -> Int64.to_float (Int64.sub started.(i) submitted.(i)))
  in
  (pct waits 0.5, pct waits 0.99)

let take n l = List.filteri (fun i _ -> i < n) l

(* [served]: the requests the served run sent, in order; [busy_ns]: its
   wall time from first send to last response; [sub]: documents for the
   sampled passes (cluster, frame, supervisor). *)
let run ~(inp : W.inputs) ~(served : Client.req array) ~busy_ns ~sub ~wal_path =
  let w = inp.W.w in
  let muts = W.mutations ~seed:inp.W.seed in
  let items = items inp muts served in
  let builds =
    List.init 3 (fun _ ->
        let t0 = now () in
        let p = Problem.create ~sim:w.W.sim ~q:w.W.q (Array.to_list inp.W.entities) in
        (elapsed t0 /. 1e9, p))
  in
  let index_build_s = median (List.map fst builds) in
  let base_problem = snd (List.hd builds) in
  let base = Extractor.of_problem base_problem in
  let sample = take sub (Array.to_list inp.W.docs) in
  let cluster_spawn_s, submit_p50, overhead_p50, submit_mean =
    cluster_pass inp base sample
  in
  let frame_rt, frame_bytes = frame_pass base sample in
  (* ---- request path + stages, over every served request ---- *)
  let sp = Span.create () in
  let c =
    {
      tokenize_tokens = 0;
      heap_pops = 0;
      candidates_generated = 0;
      verify_calls = 0;
      fallback_verify_calls = 0;
      matches_verified = 0;
    }
  in
  let problem = ref base_problem and ex = ref base in
  let delta = ref (Ix.Delta.create (Problem.index base_problem)) in
  (try Sys.remove wal_path with Sys_error _ -> ());
  let wal = Faerie_util.Wal.openfile wal_path in
  let mutate ~doc o =
    let raw = W.x muts (W.op_target o) in
    Span.with_ sp "mutation" ~doc (fun () ->
        Span.with_ sp "wal.append" ~doc (fun () ->
            Faerie_util.Wal.append wal
              (match o with W.Add _ -> Faerie_util.Wal.Add raw | W.Remove _ -> Faerie_util.Wal.Remove raw));
        Span.with_ sp "delta.apply" ~doc (fun () ->
            match o with
            | W.Add _ -> ignore (Ix.Delta.add !delta raw : Ix.Delta.add_result)
            | W.Remove _ -> ignore (Ix.Delta.remove !delta raw : Ix.Delta.remove_result));
        let view = Span.with_ sp "delta.view" ~doc (fun () -> Ix.Delta.view !delta) in
        let p =
          Span.with_ sp "problem.of_index" ~doc (fun () ->
              Problem.of_index ~sim:w.W.sim view)
        in
        problem := p;
        ex := Extractor.of_problem p)
  in
  let ws = Ix.Inverted_index.Workspace.create () in
  (* position lists that reach window search, flattened *)
  let flat = Dynarray.create () and lists = Dynarray.create () in
  let scratch = ref (Array.make 4096 0) in
  let n_docs = ref 0 and n_mut = ref 0 in
  let x_minor = ref 0. and tok_minor = ref 0. and hm_minor = ref 0. in
  let resp_bytes = ref 0 and entities = ref 0 and n_lists = ref 0 and n_windows = ref 0 in
  let seen = ref 0 and pruned = ref 0 in
  let minor f acc =
    let m0 = Gc.minor_words () in
    let v = f () in
    acc := !acc +. (Gc.minor_words () -. m0);
    v
  in
  Array.iter
    (function
      | Mutation o ->
          incr n_mut;
          mutate ~doc:(-1) o
      | Text { ord; line; text } ->
          incr n_docs;
          let p = !problem in
          Span.with_ sp "request" ~doc:ord (fun () ->
              let req =
                Span.with_ sp "serve_proto.decode" ~doc:ord (fun () ->
                    Serve_proto.parse_request ~ord line)
              in
              let text = match req with Ok r -> r.Serve_proto.text | Error _ -> text in
              let report =
                Span.with_ sp "extractor.run" ~doc:ord (fun () ->
                    minor (fun () -> Extractor.run !ex (`Text text)) x_minor)
              in
              let resp =
                Span.with_ sp "serve_proto.encode" ~doc:ord (fun () ->
                    Serve_proto.response_json ~ord ~id:None ~gen:0
                      (Parallel.outcome_of_report report))
              in
              resp_bytes := !resp_bytes + String.length resp + 1);
          Span.with_ sp "stages" ~doc:ord (fun () ->
              let doc =
                Span.with_ sp "tokenize" ~doc:ord (fun () ->
                    minor (fun () -> Problem.tokenize_document p text) tok_minor)
              in
              let n_tokens = Tk.Document.n_tokens doc in
              c.tokenize_tokens <- c.tokenize_tokens + n_tokens;
              Dynarray.clear flat;
              Dynarray.clear lists;
              Span.with_ sp "heap_merge" ~doc:ord (fun () ->
                  minor
                    (fun () ->
                      let buf, offs, lens =
                        Ix.Inverted_index.decode_document (Problem.index p) ws doc
                      in
                      Heaps.Multiway.iter_entity_positions ~n_positions:n_tokens ~buf
                        ~offs ~lens
                        ~f:(fun ~entity ~positions ~n ->
                          c.heap_pops <- c.heap_pops + n;
                          incr entities;
                          let info = Problem.info p entity in
                          if info.Problem.path = Problem.Indexed && n >= info.Problem.tl
                          then begin
                            Dynarray.push lists entity;
                            Dynarray.push lists (Dynarray.length flat);
                            Dynarray.push lists n;
                            for i = 0 to n - 1 do
                              Dynarray.push flat positions.(i)
                            done
                          end)
                        ())
                    hm_minor);
              Span.with_ sp "windows" ~doc:ord (fun () ->
                  for l = 0 to (Dynarray.length lists / 3) - 1 do
                    let entity = Dynarray.get lists (3 * l)
                    and off = Dynarray.get lists ((3 * l) + 1)
                    and n = Dynarray.get lists ((3 * l) + 2) in
                    if Array.length !scratch < n then scratch := Array.make (2 * n) 0;
                    let a = !scratch in
                    for i = 0 to n - 1 do
                      a.(i) <- Dynarray.get flat (off + i)
                    done;
                    let info = Problem.info p entity in
                    incr n_lists;
                    Windows.iter_windows ~n ~positions:a ~tl:info.Problem.tl
                      ~upper:info.Problem.upper
                      ~f:(fun ~first:_ ~last:_ -> incr n_windows)
                      ()
                  done);
              let cands, st =
                Span.with_ sp "filter" ~doc:ord (fun () ->
                    Single_heap.candidates ~pruning:Types.Binary_window p doc)
              in
              c.candidates_generated <- c.candidates_generated + st.Types.candidates;
              seen := !seen + st.Types.entities_seen;
              pruned := !pruned + st.Types.entities_pruned_lazy;
              Span.with_ sp "verify" ~doc:ord (fun () ->
                  List.iter
                    (fun (cd : Types.candidate) ->
                      let score =
                        Problem.verify_span p doc ~entity:cd.Types.entity
                          ~start:cd.Types.start ~len:cd.Types.len
                      in
                      c.verify_calls <- c.verify_calls + 1;
                      if Sim.Verify.Score.passes (Problem.sim p) score then
                        c.matches_verified <- c.matches_verified + 1)
                    cands);
              ignore
                (Span.with_ sp "fallback" ~doc:ord (fun () -> Fallback.run p doc)
                  : Types.char_match list);
              c.fallback_verify_calls <-
                c.fallback_verify_calls
                + fallback_calls p (String.length (Tk.Document.text doc))))
    items;
  (* Workloads that serve no mutation still time the mutation layers, after
     the replay, so every layer has a number. *)
  if !n_mut = 0 then
    for k = 0 to 7 do
      mutate ~doc:(-1) (W.op muts k)
    done;
  Faerie_util.Wal.close wal;
  let queue_p50, queue_p99 = supervisor_pass base sample ~window:16 in
  let mean name =
    let total, k = Span.self_of sp name in
    div total (fi k)
  in
  let per_doc name = div (fst (Span.self_of sp name)) (fi !n_docs) in
  let nd = fi !n_docs in
  let decode = mean "serve_proto.decode" and encode = mean "serve_proto.encode" in
  let extract = mean "extractor.run" in
  let mut_layers = [ "wal.append"; "delta.apply"; "delta.view"; "problem.of_index" ] in
  let served_ns =
    (nd *. (decode +. encode +. if w.W.shards > 0 then submit_mean else extract))
    +. (fi !n_mut *. List.fold_left (fun a l -> a +. mean l) 0. mut_layers)
  in
  let ns = "ns" and count = "count" and words = "words" and ratio = "ratio" in
  let metrics =
    [
      ("serve_proto.decode_ns", decode, ns);
      ("serve_proto.encode_ns", encode, ns);
      ("serve_proto.response_bytes", div (fi !resp_bytes) nd, "bytes");
      ("supervisor.queue_wait_ns_p50", queue_p50, ns);
      ("supervisor.queue_wait_ns_p99", queue_p99, ns);
      ("frame.roundtrip_ns", frame_rt, ns);
      ("frame.bytes_per_doc", frame_bytes, "bytes");
      ("cluster.submit_ns_p50", submit_p50, ns);
      ("cluster.overhead_ns_p50", overhead_p50, ns);
      ("extractor.ns_per_doc", extract, ns);
      ("extractor.minor_words_per_token", div !x_minor (fi c.tokenize_tokens), words);
      ("tokenize.ns_per_doc", per_doc "tokenize", ns);
      ("tokenize.tokens_per_doc", div (fi c.tokenize_tokens) nd, count);
      ("tokenize.minor_words_per_doc", div !tok_minor nd, words);
      ("heap_merge.ns_per_doc", per_doc "heap_merge", ns);
      ("heap_merge.postings_per_doc", div (fi c.heap_pops) nd, count);
      ("heap_merge.entities_per_doc", div (fi !entities) nd, count);
      ("heap_merge.minor_words_per_doc", div !hm_minor nd, words);
      ("windows.ns_per_doc", per_doc "windows", ns);
      ("windows.lists_per_doc", div (fi !n_lists) nd, count);
      ("windows.windows_per_list", div (fi !n_windows) (fi !n_lists), count);
      ("filter.ns_per_doc", per_doc "filter", ns);
      ("filter.candidates_per_doc", div (fi c.candidates_generated) nd, count);
      ("filter.lazy_pruned_frac", div (fi !pruned) (fi !seen), ratio);
      ("verify.ns_per_call", div (fst (Span.self_of sp "verify")) (fi c.verify_calls), ns);
      ("verify.calls_per_doc", div (fi c.verify_calls) nd, count);
      ("verify.pass_frac", div (fi c.matches_verified) (fi c.verify_calls), ratio);
      ("fallback.ns_per_doc", per_doc "fallback", ns);
      ("fallback.verify_calls_per_doc", div (fi c.fallback_verify_calls) nd, count);
      ("fallback.entities", fi (List.length (Problem.fallback_entities base_problem)), count);
      ("delta.apply_ns", mean "delta.apply", ns);
      ("delta.view_ns", mean "delta.view", ns);
      ("problem.of_index_ns", mean "problem.of_index", ns);
      ("wal.append_ns", mean "wal.append", ns);
      ("setup.index_build_s", index_build_s, "s");
      ("setup.cluster_spawn_s", cluster_spawn_s, "s");
      ("serve.unaccounted_frac", 1. -. div served_ns busy_ns, ratio);
    ]
  in
  { metrics; counts = c; spans = sp }
