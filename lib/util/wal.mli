(** Crash-safe write-ahead log for dictionary mutations.

    Each mutation is one length-prefixed, checksummed record written as one
    {!Faerie_obs.Append_log} append + fsync, so after a crash the file is
    always a whole-record prefix plus at most one torn tail. Recovery mirrors
    {!Faerie_index.Codec.load}'s taxonomy: a record cut short by the crash
    is {e truncated} (expected; the whole-record prefix is recovered and
    the tail can be trimmed), while a structurally complete record with a
    bad checksum or unknown opcode is {e corrupt} (refuse to serve).

    Record layout: [varint payload-len ∥ payload ∥ varint fnv1a(payload)]
    with [payload = opcode byte ('A'|'R') ∥ raw entity string]. *)

exception Corrupt of string
(** Structural damage that cannot result from a torn append: checksum
    mismatch, unknown opcode, overlong varint, zero-length record. *)

exception Truncated of { at : int; len : int }
(** Raised by [replay ~strict:true] on a torn tail: the last (partial)
    record starts at byte [at] of a [len]-byte file. *)

type op = Add of string | Remove of string
(** One logged mutation, carrying the raw entity string. *)

type tail =
  | Clean
  | Torn of { at : int; len : int }
      (** The file ends with a partial record starting at byte [at]. *)

type t
(** An open append handle. *)

val openfile : string -> t
(** Open (creating if absent) for appending. *)

val path : t -> string

val append : t -> op -> unit
(** Durably append one record: one {!Faerie_obs.Append_log} append +
    fsync. Fires the ["wal_append"] fault site {e before} writing — an
    injection models a crash before the record reaches disk, so the
    mutation must be rejected by the caller, never half-applied.

    @raise Faerie_util.Fault.Injected when the site fires. *)

val truncate : t -> unit
(** Reset the log to empty (after a successful compaction has folded every
    logged mutation into a durable snapshot). *)

val close : t -> unit

val encode : op -> string
(** The exact byte encoding of one record (exposed for tests). *)

val parse : string -> op list * tail
(** Decode a log image into its whole-record prefix and tail status.

    @raise Corrupt on structural damage (never on a torn tail). *)

val replay : ?strict:bool -> string -> (op -> unit) -> int * tail
(** [replay path f] parses the log (a missing file reads as empty) and
    applies [f] to each whole record in order, firing the ["wal_replay"]
    fault site per record; returns the applied count and the tail status.
    Parsing completes before any [f] runs, so a {!Corrupt} log applies
    nothing. With [~strict:true] a torn tail raises {!Truncated} instead
    of being recovered.

    @raise Corrupt on structural damage. *)

val repair : string -> tail -> unit
(** Trim a torn tail off the file ([Clean] is a no-op), so the next append
    starts at a record boundary. *)
