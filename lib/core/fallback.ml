module Tk = Faerie_tokenize
module S = Faerie_sim
module Ix = Faerie_index
open Types

let char_length_bounds sim ~e_chars =
  let e = float_of_int e_chars in
  match sim with
  | S.Sim.Edit_distance tau -> (max 1 (e_chars - tau), e_chars + tau)
  | S.Sim.Edit_similarity d ->
      ( max 1 (int_of_float (Float.ceil ((e *. d) -. 1e-9))),
        int_of_float (Float.floor ((e /. d) +. 1e-9)) )
  | S.Sim.Jaccard _ | S.Sim.Cosine _ | S.Sim.Dice _ ->
      invalid_arg "Fallback.char_length_bounds: token-based function"

let m_fallback_verify =
  Faerie_obs.Metrics.counter
    ~help:"admissible (start, len) pairs the fallback path decided"
    "fallback_verify_calls"

let extract ~search ?verifier problem doc =
  match Problem.fallback_entities problem with
  | [] -> []
  | fallback ->
      Faerie_obs.Trace.with_span "fallback" @@ fun () ->
      let sim = Problem.sim problem in
      let text = Tk.Document.text doc in
      let n = String.length text in
      let dict = Problem.dictionary problem in
      let acc = ref [] in
      let decided = ref 0 in
      Fun.protect ~finally:(fun () ->
          Faerie_obs.Metrics.add m_fallback_verify !decided)
      @@ fun () ->
      List.iter
        (fun id ->
          let e_str = (Ix.Dictionary.entity dict id).Ix.Entity.text in
          let m = String.length e_str in
          let lo, hi = char_length_bounds sim ~e_chars:m in
          let top = min hi n in
          let check ~start ~len =
            let score =
              S.Verify.char_score_slice ?verifier sim ~e_str ~text ~off:start
                ~len
            in
            if S.Verify.Score.passes sim score then
              acc :=
                { c_entity = id; c_start = start; c_len = len; c_score = score }
                :: !acc
          in
          if search && m >= 1 && m <= S.Edit_distance.myers_max_len then begin
            (* The verifier's cap grows with max(|e|, len), so [cap] is the
               largest it uses at any admissible length. A pair that passes
               is within [cap], so its end is a search hit. *)
            let cap = S.Verify.char_cap sim ~maxlen:(max m hi) in
            if lo <= top then
              S.Edit_distance.iter_search_ends ~cap e_str ~text ~f:(fun j ->
                  for len = lo to min top j do
                    check ~start:(j - len) ~len
                  done)
          end
          else
            for len = lo to top do
              for start = 0 to n - len do
                check ~start ~len
              done
            done;
          for len = lo to top do
            decided := !decided + (n - len + 1)
          done)
        fallback;
      List.sort_uniq compare_char_match !acc

let run ?verifier problem doc = extract ~search:true ?verifier problem doc

let exhaustive ?verifier problem doc = extract ~search:false ?verifier problem doc
