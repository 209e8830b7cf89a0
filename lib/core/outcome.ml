module Budget = Faerie_util.Budget

type exn_info = { exn_name : string; message : string; backtrace : string }

let exn_info_of ?backtrace exn =
  {
    exn_name = Printexc.exn_slot_name exn;
    message = Printexc.to_string exn;
    backtrace =
      (match backtrace with Some b -> b | None -> Printexc.get_backtrace ());
  }

type shed_cause = Deadline_expired | Queue_full | Shutdown

let shed_cause_to_string = function
  | Deadline_expired -> "deadline already expired"
  | Queue_full -> "admission queue full"
  | Shutdown -> "service shutting down"

type error =
  | Doc_too_large of { bytes : int; limit : int }
  | Budget_exhausted of Budget.exhaustion
  | Tokenize_error of string
  | Corrupt_index of string
  | Injected_fault of string
  | Worker_crash of exn_info
  | Shed of shed_cause
  | Quarantined of { attempts : int; last : error }

type degradation =
  | Oversize_chunked of { bytes : int; limit : int }
  | Partial of Budget.exhaustion
  | Shard_partial of { n_shards : int; missing : int list }

type 'a t = Ok of 'a | Degraded of 'a * degradation | Failed of error

let is_ok = function Ok _ -> true | Degraded _ | Failed _ -> false

let is_failed = function Failed _ -> true | Ok _ | Degraded _ -> false

let matches = function
  | Ok v | Degraded (v, _) -> Some v
  | Failed _ -> None

let rec error_to_string = function
  | Doc_too_large { bytes; limit } ->
      Printf.sprintf "document too large (%d bytes, limit %d)" bytes limit
  | Budget_exhausted e ->
      Printf.sprintf "budget exhausted (%s)" (Budget.exhaustion_to_string e)
  | Tokenize_error msg -> Printf.sprintf "tokenization failed: %s" msg
  | Corrupt_index msg -> Printf.sprintf "corrupt index: %s" msg
  | Injected_fault site -> Printf.sprintf "injected fault at site %S" site
  | Worker_crash { exn_name; message; _ } ->
      Printf.sprintf "worker crashed: %s (%s)" exn_name message
  | Shed cause -> Printf.sprintf "shed: %s" (shed_cause_to_string cause)
  | Quarantined { attempts; last } ->
      Printf.sprintf "quarantined after %d attempts (last: %s)" attempts
        (error_to_string last)

let degradation_to_string = function
  | Oversize_chunked { bytes; limit } ->
      Printf.sprintf "oversize document (%d bytes > %d): chunked processing"
        bytes limit
  | Partial e ->
      Printf.sprintf "partial results: %s budget exhausted"
        (Budget.exhaustion_to_string e)
  | Shard_partial { n_shards; missing } ->
      Printf.sprintf "partial results: %d of %d shards missing (%s)"
        (List.length missing) n_shards
        (String.concat "," (List.map string_of_int missing))

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type cls = [ `Ok | `Degraded | `Failed | `Shed | `Quarantined ]

let classify = function
  | Ok _ -> `Ok
  | Degraded _ -> `Degraded
  | Failed (Shed _) -> `Shed
  | Failed (Quarantined _) -> `Quarantined
  | Failed _ -> `Failed

let class_name = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Failed -> "failed"
  | `Shed -> "shed"
  | `Quarantined -> "quarantined"

type summary = {
  n_docs : int;
  n_ok : int;
  n_degraded : int;
  n_failed : int;
  n_shed : int;
  n_quarantined : int;
  failures : (int * error) list;
  elapsed_ns : int64;
}

type tally = {
  mutable t_docs : int;
  mutable t_ok : int;
  mutable t_degraded : int;
  mutable t_failed : int;
  mutable t_shed : int;
  mutable t_quarantined : int;
}

let tally () =
  { t_docs = 0; t_ok = 0; t_degraded = 0; t_failed = 0; t_shed = 0; t_quarantined = 0 }

let tally_add t o =
  t.t_docs <- t.t_docs + 1;
  match classify o with
  | `Ok -> t.t_ok <- t.t_ok + 1
  | `Degraded -> t.t_degraded <- t.t_degraded + 1
  | `Failed -> t.t_failed <- t.t_failed + 1
  | `Shed -> t.t_shed <- t.t_shed + 1
  | `Quarantined -> t.t_quarantined <- t.t_quarantined + 1

let tally_summary ?(elapsed_ns = 0L) t =
  {
    n_docs = t.t_docs;
    n_ok = t.t_ok;
    n_degraded = t.t_degraded;
    n_failed = t.t_failed;
    n_shed = t.t_shed;
    n_quarantined = t.t_quarantined;
    failures = [];
    elapsed_ns;
  }

let summarize ?elapsed_ns outcomes =
  let t = tally () in
  let failures = ref [] in
  Array.iteri
    (fun i o ->
      tally_add t o;
      match (classify o, o) with
      | `Failed, Failed err -> failures := (i, err) :: !failures
      | _ -> ())
    outcomes;
  { (tally_summary ?elapsed_ns t) with failures = List.rev !failures }

let pp_summary ppf s =
  Format.fprintf ppf "%d documents: %d ok, %d degraded, %d failed" s.n_docs
    s.n_ok s.n_degraded s.n_failed;
  if s.n_shed > 0 then Format.fprintf ppf ", %d shed" s.n_shed;
  if s.n_quarantined > 0 then
    Format.fprintf ppf ", %d quarantined" s.n_quarantined;
  if s.elapsed_ns > 0L then
    Format.fprintf ppf " in %.1f ms"
      (Int64.to_float s.elapsed_ns /. 1e6)

(* Locked by test_robustness: the serve loop prints these fields first
   in its final stderr line, and the smoke CI job greps them. *)
let summary_fields s =
  let int k v = (k, Faerie_util.Json.int v) in
  [
    int "docs" s.n_docs;
    int "ok" s.n_ok;
    int "degraded" s.n_degraded;
    int "failed" s.n_failed;
    int "shed" s.n_shed;
    int "quarantined" s.n_quarantined;
    ("elapsed_ns", Faerie_util.Json.Int s.elapsed_ns);
  ]
