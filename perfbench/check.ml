(* Correctness gate: every served response is compared byte for byte
   with what an in-process Extractor.run of the same build, on the same
   dictionary (mutations replayed in order through Delta), renders; and
   a fixed sample of documents is checked against the Naive oracle. *)

module W = Workload
module Ix = Faerie_index
open Faerie_core

let prefix = "{\"doc\":0"

(* A cluster coordinator merges shard answers in (start, length, entity)
   order; a single-process server keeps the extractor's (entity, start,
   length) order. Same matches, same bytes per match, different order. *)
let cluster_order (out : Parallel.outcome) =
  let key (m : Types.char_match) = (m.Types.c_start, m.c_len, m.c_entity) in
  let sort = List.sort (fun a b -> compare (key a) (key b)) in
  match out with
  | Outcome.Ok ms -> Outcome.Ok (sort ms)
  | Outcome.Degraded (ms, why) -> Outcome.Degraded (sort ms, why)
  | Outcome.Failed _ as f -> f

(* The response a server would print for [text], minus the leading
   {"doc":ORD so it can be matched at any ordinal. *)
let suffix (w : W.t) ex text =
  let out = Parallel.outcome_of_report (Extractor.run ex (`Text text)) in
  let out = if w.W.shards > 0 then cluster_order out else out in
  let line = Serve_proto.response_json ~ord:0 ~id:None ~gen:0 out in
  String.sub line (String.length prefix)
    (String.length line - String.length prefix)

let doc_ok ~ord ~suffix line =
  let p = Printf.sprintf "{\"doc\":%d" ord in
  let lp = String.length p in
  String.length line = lp + String.length suffix
  && String.sub line 0 lp = p
  && String.sub line lp (String.length suffix) = suffix

type verdict = {
  bad : bool array;  (** per request, in send order *)
  n_bad : int;
  examples : string list;  (** a few mismatches, for the log *)
}

(* [corrupt] flips one character of the [corrupt]-th response first: the
   self-test uses it to prove the gate trips. *)
let run ?corrupt (inp : W.inputs) (reqs : Client.req array) =
  let w = inp.W.w in
  (match corrupt with
  | Some i when i < Array.length reqs ->
      let r = reqs.(i) in
      let b = Bytes.of_string r.Client.resp in
      if Bytes.length b > 0 then begin
        let j = Bytes.length b - 2 in
        Bytes.set b j (if Bytes.get b j = '0' then '1' else '0');
        r.Client.resp <- Bytes.to_string b
      end
  | _ -> ());
  let problem = Problem.create ~sim:w.W.sim ~q:w.W.q (Array.to_list inp.W.entities) in
  let base = Extractor.of_problem problem in
  let memo = Hashtbl.create 4096 in
  let doc_suffix d =
    match Hashtbl.find_opt memo d with
    | Some s -> s
    | None ->
        let s = suffix w base inp.W.docs.(d) in
        Hashtbl.replace memo d s;
        s
  in
  let muts = W.mutations ~seed:inp.W.seed in
  let delta = Ix.Delta.create (Problem.index problem) in
  let probe_suffix = Hashtbl.create 64 in
  let mut_line k =
    let o = W.op muts k in
    let op, raw = match o with W.Add x -> ("dict_add", W.x muts x) | W.Remove x -> ("dict_remove", W.x muts x) in
    let applied, entity =
      match o with
      | W.Add _ -> (
          match Ix.Delta.add delta raw with
          | Ix.Delta.Added id -> (true, id)
          | Ix.Delta.Exists id -> (false, id))
      | W.Remove _ -> (
          match Ix.Delta.remove delta raw with
          | Ix.Delta.Removed id -> (true, id)
          | Ix.Delta.Absent -> (false, -1))
    in
    let ex =
      Extractor.of_problem (Problem.of_index ~sim:w.W.sim (Ix.Delta.view delta))
    in
    Hashtbl.replace probe_suffix k (suffix w ex (W.probe_text muts o));
    Serve_proto.dict_response_json ~op ~applied ~entity
      ~entities:(Ix.Delta.live_count delta) ~gen:0
  in
  let n_bad = ref 0 and examples = ref [] in
  let bad =
    Array.map
      (fun (r : Client.req) ->
        let ok =
          match r.Client.kind with
          | Client.KDoc d -> doc_ok ~ord:r.Client.ord ~suffix:(doc_suffix d) r.Client.resp
          | Client.KMut k -> r.Client.resp = mut_line k
          | Client.KProbe k ->
              doc_ok ~ord:r.Client.ord ~suffix:(Hashtbl.find probe_suffix k)
                r.Client.resp
        in
        if not ok then begin
          incr n_bad;
          let want =
            match r.Client.kind with
            | Client.KDoc d -> doc_suffix d
            | Client.KProbe k -> Hashtbl.find probe_suffix k
            | Client.KMut _ -> ""
          in
          if !n_bad <= 3 then
            examples :=
              Printf.sprintf "ord %d: got %s\n  want {\"doc\":%d%s" r.Client.ord
                (if r.Client.resp = "" then "(no response)" else r.Client.resp)
                r.Client.ord want
              :: !examples
        end;
        not ok)
      reqs
  in
  ({ bad; n_bad = !n_bad; examples = List.rev !examples }, base)

(* Naive-oracle agreement on a fixed sample of documents. The oracle is
   quadratic, so it runs over a sub-dictionary: every entity the
   extractor reported for the document plus every [stride]-th entity.
   Each entity's answer depends only on that entity and the document,
   so the sub-dictionary's answer must equal the full answer restricted
   to it — no false positive passes, and the sampled entities probe for
   misses. Returns the number of disagreeing documents. *)
let oracle (inp : W.inputs) base ~docs ~stride =
  let w = inp.W.w in
  let key (m : Types.char_match) = (m.Types.c_entity, m.c_start, m.c_len, m.c_score) in
  List.fold_left
    (fun bad d ->
      let text = inp.W.docs.(d) in
      let got =
        match (Extractor.run base (`Text text)).Extractor.outcome with
        | Outcome.Ok rs ->
            List.map
              (fun (r : Extractor.result) ->
                (r.Extractor.entity_id, r.start_char, r.len_chars, r.score))
              rs
        | Outcome.Degraded _ | Outcome.Failed _ -> []
      in
      let ids =
        List.sort_uniq compare
          (List.map (fun (e, _, _, _) -> e) got
          @ List.init (Array.length inp.W.entities / stride) (fun i -> i * stride))
      in
      let ids = Array.of_list ids in
      let sub =
        Problem.create ~sim:w.W.sim ~q:w.W.q
          (Array.to_list (Array.map (fun i -> inp.W.entities.(i)) ids))
      in
      let naive =
        Faerie_baselines.Naive.extract ~length_filtered:true sub
          (Problem.tokenize_document sub text)
        |> List.map (fun m ->
               let e, s, l, sc = key m in
               (ids.(e), s, l, sc))
        |> List.sort compare
      in
      let want = List.sort compare (List.filter (fun (e, _, _, _) -> Array.mem e ids) got) in
      if naive = want then bad else bad + 1)
    0 docs
