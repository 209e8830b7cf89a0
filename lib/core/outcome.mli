(** Structured per-document extraction outcomes.

    The pipeline boundary ({!Parallel}) never lets an exception cross a
    document: every document maps to exactly one outcome —

    - [Ok matches]: full, exact result set;
    - [Degraded (matches, why)]: a sound but possibly partial (budget
      exhaustion) or memory-bounded (oversize chunking) result, with the
      reason attached — partial work is reported, never silently dropped;
    - [Failed error]: no usable result; the error taxonomy says why.

    The serving layer ({!Supervisor}) adds two terminal refusals on top of
    the [Failed] taxonomy: [Shed] (the document was never started — admission
    control rejected it) and [Quarantined] (every retry attempt failed and
    the document was written to the dead-letter file). {!classify} splits the
    five classes apart for accounting.

    A batch of outcomes folds into a {!summary} for reporting and exit
    policy. *)

type exn_info = { exn_name : string; message : string; backtrace : string }
(** Printable capture of an unexpected exception (the exception itself is
    not kept: outcomes may cross domain boundaries and be persisted). *)

val exn_info_of : ?backtrace:string -> exn -> exn_info

type shed_cause =
  | Deadline_expired
      (** the document's admission deadline passed while it queued; running
          it could only produce an over-deadline answer *)
  | Queue_full  (** bounded admission queue at capacity, shedding enabled *)
  | Shutdown  (** still queued when a non-draining shutdown was requested *)

val shed_cause_to_string : shed_cause -> string

type error =
  | Doc_too_large of { bytes : int; limit : int }
      (** document over the byte limit and oversize policy is [`Reject] *)
  | Budget_exhausted of Faerie_util.Budget.exhaustion
      (** a budget tripped at a point where no partial results exist *)
  | Tokenize_error of string  (** document tokenization rejected the input *)
  | Corrupt_index of string  (** {!Faerie_index.Codec.Corrupt} at load *)
  | Injected_fault of string  (** a {!Faerie_util.Fault} site fired *)
  | Worker_crash of exn_info  (** any other exception, contained *)
  | Shed of shed_cause  (** refused by admission control, never started *)
  | Quarantined of { attempts : int; last : error }
      (** all [attempts] tries failed; the last error is kept and the
          document went to the dead-letter file *)

type degradation =
  | Oversize_chunked of { bytes : int; limit : int }
      (** document exceeded [max_bytes]; processed via bounded-memory
          {!Chunked} extraction (results complete, peak memory bounded) *)
  | Partial of Faerie_util.Budget.exhaustion
      (** a budget tripped mid-filter; results found before the trip are
          verified and reported (always a subset of the full result set) *)
  | Shard_partial of { n_shards : int; missing : int list }
      (** a cluster merge ({!Cluster}) where the listed shards produced no
          usable result after retries; the matches are complete for every
          other shard's entity range and sound, but entities owned by the
          missing shards may be absent *)

type 'a t = Ok of 'a | Degraded of 'a * degradation | Failed of error

val is_ok : 'a t -> bool

val is_failed : 'a t -> bool

val matches : 'a t -> 'a option
(** The carried value, for both [Ok] and [Degraded]. *)

val error_to_string : error -> string

val degradation_to_string : degradation -> string

val pp_error : Format.formatter -> error -> unit

type cls = [ `Ok | `Degraded | `Failed | `Shed | `Quarantined ]
(** The five accounting classes. [Shed] and [Quarantined] are carried as
    [Failed] constructors but counted apart: a shed document was never
    attempted and a quarantined one has a repro on disk, so neither should
    trip "extraction is broken" alerting the way a plain failure does. *)

val classify : 'a t -> cls

val class_name : cls -> string
(** ["ok"], ["degraded"], ["failed"], ["shed"], ["quarantined"] — the
    wire-format outcome tag used by [faerie serve] responses. *)

type summary = {
  n_docs : int;
  n_ok : int;
  n_degraded : int;
  n_failed : int;
      (** plain failures only — excludes shed and quarantined documents *)
  n_shed : int;
  n_quarantined : int;
  failures : (int * error) list;
      (** document index, error — input order. Plain failures only; shed and
          quarantined documents are counted in their own fields, not listed
          here. *)
  elapsed_ns : int64;  (** batch wall time; [0L] when the caller did not time *)
}

val summarize : ?elapsed_ns:int64 -> 'a t array -> summary
(** [elapsed_ns] (default [0L]) stamps the batch wall time into the
    summary; {!Parallel.extract_all_outcomes} passes the measured value. *)

type tally
(** Running class counts: what {!summarize} reports, kept as outcomes
    complete so a long-running server need not retain them. Not
    thread-safe; callers on several domains serialize {!tally_add}. *)

val tally : unit -> tally

val tally_add : tally -> 'a t -> unit

val tally_summary : ?elapsed_ns:int64 -> tally -> summary
(** The summary of every outcome added so far, with [failures = []] (the
    tally keeps counts only). *)

val pp_summary : Format.formatter -> summary -> unit

val summary_fields : summary -> (string * Faerie_util.Json.t) list
(** The fields
    [{"docs":..,"ok":..,"degraded":..,"failed":..,"shed":..,"quarantined":..,"elapsed_ns":..}]
    that open the final stderr line of [faerie serve]. *)
