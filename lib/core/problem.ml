module Tk = Faerie_tokenize
module S = Faerie_sim
module Ix = Faerie_index

type path = Indexed | Fallback | Impossible

type entity_info = {
  e_len : int;
  lower : int;
  upper : int;
  tl : int;
  gap : int;
  path : path;
}

type t = {
  sim : S.Sim.t;
  q : int;
  dict : Ix.Dictionary.t;
  index : Ix.Inverted_index.t;
  infos : entity_info array;
  fallback : int list;
  global_lower : int;
  global_upper : int;
}

let classify ~e_len ~lower ~upper ~tl =
  if upper < lower then Impossible
  else if tl = max_int then Impossible
  else if e_len = 0 || tl <= 0 then Fallback
  else Indexed

let entity_info sim ~q ~lazy_bound e =
  let e_len = Ix.Entity.n_tokens e in
  if e_len = 0 then
    (* No tokens at all: thresholds are meaningless. Word mode: an empty
       token set can never reach a positive similarity, so it is
       Impossible; gram mode: the string is shorter than q and must be
       handled by the fallback scan. *)
    let path = if S.Sim.char_based sim then Fallback else Impossible in
    { e_len; lower = 1; upper = 0; tl = 0; gap = -1; path }
  else begin
    let lower, upper = S.Thresholds.substring_bounds sim ~q ~e_len in
    let exact_tl = S.Thresholds.lazy_overlap sim ~q ~e_len in
    let gap = S.Thresholds.bucket_gap sim ~q ~e_len in
    let path = classify ~e_len ~lower ~upper ~tl:exact_tl in
    (* The [`Paper] ablation uses the paper's closed-form Tl for pruning
       strength but keeps path classification (hence completeness) from
       the exact bound; any Tl <= exact minimum of T is sound, so clamping
       at 1 on the indexed path preserves correctness. *)
    let tl =
      match lazy_bound with
      | `Exact -> exact_tl
      | `Paper ->
          if path = Indexed then
            max 1 (S.Thresholds.lazy_overlap_paper sim ~q ~e_len)
          else exact_tl
    in
    { e_len; lower; upper; tl; gap; path }
  end

let check_mode sim mode =
  match (mode, S.Sim.char_based sim) with
  | Tk.Document.Word, true ->
      invalid_arg "Problem: edit distance/similarity requires gram mode"
  | (Tk.Document.Word | Tk.Document.Gram _), _ -> ()

let assemble ~sim ~q ~lazy_bound dict index =
  let infos =
    Array.map (entity_info sim ~q ~lazy_bound) (Ix.Dictionary.entities dict)
  in
  (* A delta-overlay view tombstones removed entities: force them off every
     path (heap candidates can't arise — their postings are filtered — but
     the fallback scan iterates infos directly). *)
  if Ix.Inverted_index.is_overlay index then
    Array.iteri
      (fun id i ->
        if i.path <> Impossible && not (Ix.Inverted_index.entity_live index id)
        then infos.(id) <- { i with path = Impossible })
      infos;
  let global_lower, global_upper =
    Array.fold_left
      (fun (lo, hi) i ->
        match i.path with
        | Indexed -> (min lo i.lower, max hi i.upper)
        | Fallback | Impossible -> (lo, hi))
      (max_int, 0) infos
  in
  let fallback = ref [] in
  for id = Array.length infos - 1 downto 0 do
    if infos.(id).path = Fallback then fallback := id :: !fallback
  done;
  { sim; q; dict; index; infos; fallback = !fallback; global_lower; global_upper }

let create ~sim ?(q = 2) ?mode ?(lazy_bound = `Exact) raw_entities =
  S.Sim.validate sim;
  if q <= 0 then invalid_arg "Problem.create: q must be positive";
  let mode =
    match mode with
    | Some m ->
        check_mode sim m;
        m
    | None ->
        if S.Sim.char_based sim then Tk.Document.Gram q else Tk.Document.Word
  in
  let q = match mode with Tk.Document.Gram qq -> qq | Tk.Document.Word -> q in
  let dict = Ix.Dictionary.create ~mode raw_entities in
  let index = Ix.Inverted_index.build dict in
  assemble ~sim ~q ~lazy_bound dict index

let of_index ~sim ?(lazy_bound = `Exact) index =
  S.Sim.validate sim;
  let dict = Ix.Inverted_index.dictionary index in
  let mode = Ix.Dictionary.mode dict in
  check_mode sim mode;
  let q = match mode with Tk.Document.Gram qq -> qq | Tk.Document.Word -> 1 in
  assemble ~sim ~q ~lazy_bound dict index

let sim t = t.sim

let q t = t.q

let dictionary t = t.dict

let index t = t.index

let info t id =
  if id < 0 || id >= Array.length t.infos then
    invalid_arg (Printf.sprintf "Problem.info: unknown entity id %d" id);
  t.infos.(id)

let global_lower t = t.global_lower

let global_upper t = t.global_upper

let fallback_entities t = t.fallback

let overlap_t t ~e_len ~s_len = S.Thresholds.overlap t.sim ~q:t.q ~e_len ~s_len

let tokenize_document t raw = Ix.Dictionary.tokenize_document t.dict raw

let m_verify_calls =
  Faerie_obs.Metrics.counter
    ~help:"candidate verifications on the indexed path" "verify_calls"

let verify_span ?verifier t doc ~entity ~start ~len =
  Faerie_obs.Metrics.incr m_verify_calls;
  let e = Ix.Dictionary.entity t.dict entity in
  if S.Sim.char_based t.sim then begin
    (* Score the document slice in place — no substring allocation. *)
    let off, char_len = Tk.Document.char_extent doc ~start ~len in
    S.Verify.char_score_slice ?verifier t.sim ~e_str:e.Ix.Entity.text
      ~text:(Tk.Document.text doc) ~off ~len:char_len
  end
  else
    S.Verify.token_score t.sim ~e_tokens:e.Ix.Entity.sorted_tokens
      ~s_tokens:(Tk.Document.token_multiset doc ~start ~len)

let verify_candidate ?verifier t doc (c : Types.candidate) =
  verify_span ?verifier t doc ~entity:c.Types.entity ~start:c.Types.start
    ~len:c.Types.len

let read_entities path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line ->
            loop (if String.trim line = "" then acc else String.trim line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let load ~sim ~q ~dict ~index =
  match (index, dict) with
  | Some path, _ -> of_index ~sim (snd (Faerie_index.Codec.load path))
  | None, Some path -> create ~sim ~q (read_entities path)
  | None, None -> invalid_arg "Problem.load: a dictionary or an index is required"
