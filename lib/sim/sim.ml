type t =
  | Jaccard of float
  | Cosine of float
  | Dice of float
  | Edit_distance of int
  | Edit_similarity of float

let validate = function
  | Jaccard d | Cosine d | Dice d | Edit_similarity d ->
      if not (d > 0. && d <= 1.) then
        invalid_arg
          (Printf.sprintf "Sim.validate: delta %g outside (0, 1]" d)
  | Edit_distance tau ->
      if tau < 0 then
        invalid_arg (Printf.sprintf "Sim.validate: tau %d negative" tau)

let char_based = function
  | Edit_distance _ | Edit_similarity _ -> true
  | Jaccard _ | Cosine _ | Dice _ -> false

let name = function
  | Jaccard _ -> "jac"
  | Cosine _ -> "cos"
  | Dice _ -> "dice"
  | Edit_distance _ -> "ed"
  | Edit_similarity _ -> "eds"

let pp ppf = function
  | Jaccard d -> Format.fprintf ppf "jac(delta=%g)" d
  | Cosine d -> Format.fprintf ppf "cos(delta=%g)" d
  | Dice d -> Format.fprintf ppf "dice(delta=%g)" d
  | Edit_distance tau -> Format.fprintf ppf "ed(tau=%d)" tau
  | Edit_similarity d -> Format.fprintf ppf "eds(delta=%g)" d

let to_string t = Format.asprintf "%a" pp t

(* Thresholds print by the JSON number rule, which reads back as exactly
   [d], so specs embedded in quarantine records replay with the original
   threshold. *)
let to_spec t =
  match t with
  | Edit_distance tau -> Printf.sprintf "ed=%d" tau
  | Jaccard d | Cosine d | Dice d | Edit_similarity d ->
      name t ^ "=" ^ Faerie_util.Json.float_text d

let of_spec s =
  let num f v =
    match float_of_string_opt v with
    | Some d -> Ok (f d)
    | None -> Error (Printf.sprintf "bad threshold %S" v)
  in
  match String.split_on_char '=' s with
  | [ "jac"; d ] -> num (fun d -> Jaccard d) d
  | [ "cos"; d ] -> num (fun d -> Cosine d) d
  | [ "dice"; d ] -> num (fun d -> Dice d) d
  | [ "eds"; d ] -> num (fun d -> Edit_similarity d) d
  | [ "ed"; t ] -> (
      match int_of_string_opt t with
      | Some tau -> Ok (Edit_distance tau)
      | None -> Error (Printf.sprintf "bad tau %S" t))
  | _ ->
      Error
        "expected FUNC=THRESH with FUNC one of jac|cos|dice|eds (delta) or ed \
         (tau)"
