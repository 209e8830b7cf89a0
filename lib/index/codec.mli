(** Binary serialization of a dictionary and its inverted index.

    Loading never re-tokenizes: the interner, the entities' token arrays
    and the postings lists are stored verbatim, so a saved index for a
    large dictionary opens in I/O time.

    Format (all integers LEB128 varints, {!Faerie_util.Varint}):

    {v
    "FAERIEIX" version          magic + format version (2; others are Corrupt)
    mode q                      0 = word tokens, 1 = q-grams
    n_tokens,  strings...       interner contents, in id order
    n_entities, raw + tokens... per entity: raw string + token ids
    n_lists, (count nbytes block)...
                                postings: per token, its delta+varint block
    checksum                    FNV-1a-style hash of everything before it
    v} *)

exception Corrupt of string
(** Raised by {!load}/{!decode} on malformed input (bad magic, version,
    checksum mismatch, inconsistent counts). *)

exception Truncated of { at : int; len : int }
(** Raised by {!load}/{!decode} when the input ran out mid-value: decoding
    was consistent up to byte [at] of a [len]-byte input, then hit end of
    data. This is the signature of a torn write (crash between write and
    rename, partial copy) as opposed to in-place corruption ({!Corrupt});
    the serving layer treats it as "keep the previous snapshot", not
    "alert on a corrupt index". *)

val encode : Dictionary.t -> Inverted_index.t -> string
(** Serialize to a byte string. *)

val decode : string -> Dictionary.t * Inverted_index.t
(** Inverse of {!encode}.

    @raise Corrupt on malformed input.
    @raise Truncated when the input ends mid-value. *)

val save : Dictionary.t -> Inverted_index.t -> string -> unit
(** [save dict index path] writes the encoding to [path] atomically: the
    bytes go to a temp file in the same directory ([path.tmp.<pid>]),
    which is fsynced and then renamed over [path]. A crash at any point
    leaves [path] holding either the previous snapshot or the new one,
    never a torn mix. The ["codec_rename"] {!Faerie_util.Fault} site sits
    between fsync and rename to exercise the crash window (the injected
    fault propagates and the temp file is left behind, as a kill would
    leave it). *)

val load : string -> Dictionary.t * Inverted_index.t
(** [load path] reads an index saved by {!save}.

    @raise Corrupt on malformed input.
    @raise Truncated when the file ends mid-value (torn write).
    @raise Sys_error when the file cannot be read. *)
