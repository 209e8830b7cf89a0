(** An append-only record file shared by domains and processes: each
    {!append} lands whole, never interleaved with another appender's
    bytes. [O_APPEND] alone does not give that — [Unix.write] copies
    through a 64 KiB buffer, so a longer record goes out as several
    write(2) calls — so an append holds an in-process mutex and a
    whole-file [lockf].

    The quarantine dead-letter sink, the slow-query log and the
    dictionary WAL all append through it. *)

type t

val openfile : string -> t
(** Create (mode 0644) or open for appending.
    @raise Unix.Unix_error if it cannot be opened. *)

val append : ?fsync:bool -> t -> string -> unit
(** Write one record (terminator included) whole, then [fsync] when asked
    (default [false]). *)

val truncate : t -> unit
(** Empty the file and fsync. *)

val close : t -> unit
(** Idempotent; swallows close errors. *)
