type exhaustion = Deadline | Bytes | Candidates

let exhaustion_to_string = function
  | Deadline -> "deadline"
  | Bytes -> "bytes"
  | Candidates -> "candidates"

exception Exhausted of exhaustion

type spec = {
  timeout_ms : int option;
  max_bytes : int option;
  max_candidates : int option;
}

let spec_unlimited = { timeout_ms = None; max_bytes = None; max_candidates = None }

let deadline_ns spec ~now_ns =
  Option.map
    (fun ms -> Int64.add now_ns (Int64.mul (Int64.of_int ms) 1_000_000L))
    spec.timeout_ms

let is_spec_unlimited s =
  s.timeout_ms = None && s.max_bytes = None && s.max_candidates = None

let spec_to_json s =
  let opt = function Some i -> Json.int i | None -> Json.Null in
  Json.Obj
    [
      ("timeout_ms", opt s.timeout_ms);
      ("max_bytes", opt s.max_bytes);
      ("max_candidates", opt s.max_candidates);
    ]

let spec_of_json j =
  let opt k = Option.bind (Json.member k j) Json.to_int in
  {
    timeout_ms = opt "timeout_ms";
    max_bytes = opt "max_bytes";
    max_candidates = opt "max_candidates";
  }

type t = {
  limited : bool;
  deadline : float;  (* absolute gettimeofday; infinity when unbounded *)
  mutable bytes_left : int;
  mutable cands_left : int;
  mutable ticks : int;
  mutable tripped : exhaustion option;
}

let unlimited =
  {
    limited = false;
    deadline = infinity;
    bytes_left = max_int;
    cands_left = max_int;
    ticks = 0;
    tripped = None;
  }

let start spec =
  if is_spec_unlimited spec then unlimited
  else
    {
      limited = true;
      deadline =
        (match spec.timeout_ms with
        | None -> infinity
        | Some ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.));
      bytes_left = Option.value spec.max_bytes ~default:max_int;
      cands_left = Option.value spec.max_candidates ~default:max_int;
      ticks = 0;
      tripped = None;
    }

let is_unlimited t = not t.limited

module Metrics = Faerie_obs.Metrics

let m_trips = Metrics.counter ~help:"budget exhaustions, any cause" "budget_trips"

let m_trips_deadline =
  Metrics.counter ~help:"budget exhaustions: deadline" "budget_trips_deadline"

let m_trips_bytes =
  Metrics.counter ~help:"budget exhaustions: byte cap" "budget_trips_bytes"

let m_trips_candidates =
  Metrics.counter ~help:"budget exhaustions: candidate cap" "budget_trips_candidates"

let trip t what =
  t.tripped <- Some what;
  Metrics.incr m_trips;
  Metrics.incr
    (match what with
    | Deadline -> m_trips_deadline
    | Bytes -> m_trips_bytes
    | Candidates -> m_trips_candidates);
  raise (Exhausted what)

let charge_bytes t n =
  if t.limited then begin
    t.bytes_left <- t.bytes_left - n;
    if t.bytes_left < 0 then trip t Bytes
  end

let charge_candidates t n =
  if t.limited then begin
    t.cands_left <- t.cands_left - n;
    if t.cands_left < 0 then trip t Candidates
  end

let check_deadline t =
  if t.limited && t.deadline < infinity && Unix.gettimeofday () > t.deadline
  then trip t Deadline

let tick t =
  if t.limited && t.deadline < infinity then begin
    t.ticks <- t.ticks + 1;
    if t.ticks land 255 = 0 then check_deadline t
  end

let exhausted t = t.tripped
