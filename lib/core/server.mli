(** The [faerie serve] request loop: NDJSON requests in, one response per
    request out, a summary line at EOF — one loop for both modes, over a
    {!Backend.S}: {!Local} (the supervised pool over a {!Live_dict}) or
    {!Sharded} (the forked {!Cluster}).

    The loop owns what the modes share: the select-parked line reader
    that surfaces stats ticks; admin ops, answered before a document
    ordinal is assigned (probing never shifts a fault schedule); request
    budgets, trace sampling and slow-query capture; WAL recovery, and
    every mutation as WAL append first, then apply; reloads, which
    re-apply the WAL's pending mutations; the tally and the summary. *)

module Local : sig
  include Backend.S

  val create :
    Backend.config -> replay:((Faerie_util.Wal.op -> unit) -> unit) -> t
  (** Load the dictionary, apply [replay]'s mutations, start the pool. *)
end

module Sharded : sig
  include Backend.S

  val create :
    Backend.config -> replay:((Faerie_util.Wal.op -> unit) -> unit) -> t
  (** Fork the cluster, then route [replay]'s mutations to their shards. *)
end

val run :
  (module Backend.S with type t = 'b) ->
  'b ->
  Backend.config ->
  ?input:Unix.file_descr ->
  ?output:out_channel ->
  ?log:out_channel ->
  ?started:float ->
  unit ->
  unit
(** Serve [input] (default stdin) to [output] (default stdout) until EOF
    or EPIPE, appending mutations to [config.wal]; then close the backend
    and write the summary line to [log] (default stderr). Health reports
    uptime since [started] (default now). Starts no domain or thread. *)

val main : Backend.config -> int
(** Arm fault injection, sampling and the slow-query log, recover the WAL
    into a fresh backend and {!run} it on stdio. Signal handlers are the
    caller's. *)
