module Token_ops = Faerie_tokenize.Token_ops
module Metrics = Faerie_obs.Metrics

let m_scores =
  Metrics.counter ~help:"similarity scores computed (token or char)"
    "verify_scores"

let m_early_exits =
  Metrics.counter ~help:"capped edit-distance computations cut off at the cap"
    "verify_early_exits"

let m_myers =
  Metrics.counter ~help:"character verifications routed to the Myers engine"
    "verify_myers"

let m_banded =
  Metrics.counter ~help:"character verifications routed to the banded DP"
    "verify_banded"

type verifier = Banded | Myers | Auto

let verifier_name = function
  | Banded -> "banded"
  | Myers -> "myers"
  | Auto -> "auto"

let verifier_of_string = function
  | "banded" -> Some Banded
  | "myers" -> Some Myers
  | "auto" -> Some Auto
  | _ -> None

module Score = struct
  type t = Similarity of float | Distance of int

  let passes sim t =
    match (sim, t) with
    | (Sim.Jaccard d | Sim.Cosine d | Sim.Dice d | Sim.Edit_similarity d), Similarity s ->
        s >= d -. 1e-9
    | Sim.Edit_distance tau, Distance d -> d <= tau
    | Sim.Edit_distance _, Similarity _ | _, Distance _ ->
        invalid_arg "Score.passes: score kind does not match function"

  let pp ppf = function
    | Similarity s -> Format.fprintf ppf "sim=%.4f" s
    | Distance d -> Format.fprintf ppf "ed=%d" d

  let compare a b =
    match (a, b) with
    | Similarity x, Similarity y -> Stdlib.compare y x
    | Distance x, Distance y -> Stdlib.compare x y
    | Similarity _, Distance _ -> -1
    | Distance _, Similarity _ -> 1
end

let token_score sim ~e_tokens ~s_tokens =
  Faerie_util.Fault.site "verify";
  Metrics.incr m_scores;
  let e = Array.length e_tokens and s = Array.length s_tokens in
  let o = float_of_int (Token_ops.multiset_overlap e_tokens s_tokens) in
  let e = float_of_int e and s = float_of_int s in
  match sim with
  | Sim.Jaccard _ ->
      let union = e +. s -. o in
      Score.Similarity (if union <= 0. then 1.0 else o /. union)
  | Sim.Cosine _ ->
      Score.Similarity (if e = 0. || s = 0. then 0. else o /. sqrt (e *. s))
  | Sim.Dice _ ->
      Score.Similarity (if e +. s = 0. then 1.0 else 2. *. o /. (e +. s))
  | Sim.Edit_distance _ | Sim.Edit_similarity _ ->
      invalid_arg "Verify.token_score: character-based function"

(* Engine routing: [Banded] forces the DP; [Myers]/[Auto] take the
   bit-parallel engine whenever the shorter string fits in one word.
   Counted per scoring call so the verify_myers/verify_banded pair sums to
   the character-verification total. *)
let route verifier ~e_len ~s_len =
  let banded =
    match verifier with
    | Banded -> true
    | Myers | Auto -> min e_len s_len > Edit_distance.myers_max_len
  in
  Metrics.incr (if banded then m_banded else m_myers);
  banded

(* eds >= d iff ed <= (1 - d) * maxlen. *)
let char_cap sim ~maxlen =
  match sim with
  | Sim.Edit_distance tau -> tau
  | Sim.Edit_similarity d ->
      int_of_float (Float.floor (((1. -. d) *. float_of_int maxlen) +. 1e-9))
  | Sim.Jaccard _ | Sim.Cosine _ | Sim.Dice _ ->
      invalid_arg "Verify.char_cap: token-based function"

let char_score_slice ?(verifier = Auto) sim ~e_str ~text ~off ~len =
  Faerie_util.Fault.site "verify";
  Metrics.incr m_scores;
  match sim with
  | Sim.Edit_distance tau -> (
      let banded = route verifier ~e_len:(String.length e_str) ~s_len:len in
      match Edit_distance.distance_upto_slice ~cap:tau ~banded e_str ~s:text ~off ~len with
      | Some d -> Score.Distance d
      | None ->
          Metrics.incr m_early_exits;
          Score.Distance (tau + 1))
  | Sim.Edit_similarity _ ->
      let maxlen = max (String.length e_str) len in
      if maxlen = 0 then Score.Similarity 1.0
      else begin
        let cap = char_cap sim ~maxlen in
        let banded = route verifier ~e_len:(String.length e_str) ~s_len:len in
        match Edit_distance.distance_upto_slice ~cap ~banded e_str ~s:text ~off ~len with
        | Some ed ->
            Score.Similarity (1. -. (float_of_int ed /. float_of_int maxlen))
        | None ->
            Metrics.incr m_early_exits;
            Score.Similarity
              (1. -. (float_of_int (cap + 1) /. float_of_int maxlen))
      end
  | Sim.Jaccard _ | Sim.Cosine _ | Sim.Dice _ ->
      invalid_arg "Verify.char_score: token-based function"

let char_score ?verifier sim ~e_str ~s_str =
  char_score_slice ?verifier sim ~e_str ~text:s_str ~off:0
    ~len:(String.length s_str)

let check ?verifier sim ~e_tokens ~e_str ~s_tokens ~s_str =
  if Sim.char_based sim then char_score ?verifier sim ~e_str ~s_str
  else token_score sim ~e_tokens ~s_tokens
