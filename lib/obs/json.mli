(** The one JSON codec: every record the system writes or reads — serve
    requests and responses, shard frames, metrics, traces, explain
    events, SLO assessments, slowlog and quarantine records, bench
    snapshots — is a {!t} printed by {!to_string} and parsed by
    {!of_string}.

    Self-contained on purpose: the repo's only runtime dependencies are
    the compiler distribution plus cmdliner. It lives in [faerie_obs],
    the bottom of the library stack, so the exporters there can use it;
    [Faerie_util.Json] names the same module. Strings support the
    standard escapes including [\uXXXX] (decoded to UTF-8), and the
    parser rejects trailing garbage. It is meant for small one-line
    documents, not for streaming gigabyte payloads. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
      (** An exact integer, such as a wall-clock nanosecond timestamp
          (~1.7e18) past the 2{^53} a double holds exactly. Prints as its
          digits. *)
  | Num of float  (** Every other number. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val int : int -> t
(** [Num] of an [int] — how records write counts, ids and offsets. *)

val float_text : float -> string
(** The number rule, shared by the printer, [Sim.to_spec] and the
    Prometheus exposition:
    - an integral value below 2{^53} in magnitude prints as its digits
      (["42"], not ["42."]);
    - any other finite value prints as the first of [%.15g], [%.16g]
      and [%.17g] that reads back as the same double ([0.1] is ["0.1"],
      [0.1 +. 0.2] is ["0.30000000000000004"]);
    - [nan] and the infinities print as [%.17g] does (["nan"], ["inf"],
      ["-inf"]); {!to_string} writes [null] for them instead. *)

val to_string : ?lines:bool -> t -> string
(** Compact one-line rendering (no added whitespace); numbers follow
    {!float_text}. With [~lines:true], a list held directly by the root
    object prints one element per line (the bench snapshot layout). *)

val to_lines : t list -> string
(** JSON Lines: each value compact, each followed by a newline. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; [Error msg] on malformed input (never
    raises). Leading/trailing whitespace is allowed, trailing non-space
    bytes are an error. A number parses to [Num], except an integer
    literal that a double cannot hold exactly, which parses to [Int]; so
    whatever {!to_string} prints for a [Num] parses back to the same
    double. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_str : t -> string option

val to_num : t -> float option
(** [Num], or [Int] converted to the nearest double. *)

val to_int : t -> int option
(** An integral [Num] or an [Int] in [int] range. *)

val to_int64 : t -> int64 option
(** [Int], or [Num] with an integral value in [int64] range. *)

val to_list : t -> t list option

val to_bool : t -> bool option

val list_of : (t -> 'a option) -> t -> 'a list option
(** Decode every element of a [List]; [None] unless each one decodes. *)

val fields_of : (t -> 'a option) -> t -> (string * 'a) list option
(** Decode every field value of an [Obj], keeping the keys; [None]
    unless each one decodes. *)
