(** Durable, checksummed, content-addressed on-disk record log.

    One store is one append-only file: a versioned header (format magic +
    format version + caller-chosen schema version) followed by records,
    each framed as [u32 key-length | u32 payload-length | key | payload]
    with a 16-byte MD5 trailer over the frame. The header is created
    atomically (tmp file + rename); each record is appended with a single
    full write under a mutex, so a crash — including SIGKILL mid-write —
    can only leave a truncated {e tail}.

    {!open_} never fails on a damaged tail: the untrusted bytes are moved
    to a [<path>.quarantine] sidecar, the store is truncated back to its
    last intact record, and the event is surfaced as a [STORE_CORRUPT]
    {!Diag.t} warning in {!warnings} — the caller recomputes whatever was
    lost. A destroyed header, a foreign format version, or a schema
    mismatch is a hard error: nothing in the file can be trusted.

    Keys are content digests (see {!Key}); the {e last} record for a key
    is its live value, so re-appending a key supersedes an earlier record
    (how quarantined-in-content records are repaired). Appending a key
    whose live payload is byte-identical is a no-op, keeping repeated
    sweeps from growing the file. {!gc} compacts to one record per key.

    Thread-safety: every operation on an open store is mutex-protected
    except {!checkpoint}, which is deliberately lock-free (fsync only) so
    signal handlers can flush without deadlocking against a mid-append
    worker domain. *)

type t

val format_version : int
(** Version of the file framing itself (header + record layout). *)

val open_ : schema:int -> string -> (t, Diag.t) result
(** Open (or create) the store at a path.
    [schema] is the caller's payload schema version, checked against the
    header. Tail corruption is quarantined (see above) and reported via
    {!warnings}; header/format/schema problems are returned as [Error]
    ([STORE_CORRUPT] or [SWEEP_MISMATCH] diagnostics). An existing empty
    file is treated as a fresh store. *)

val warnings : t -> Diag.t list
(** Quarantine diagnostics collected while opening, in file order. *)

val length : t -> int
(** Distinct live keys. *)

val mem : t -> string -> bool
val find : t -> string -> string option
(** The live (latest) payload for a key. *)

val append : t -> key:string -> payload:string -> unit
(** Durably append one record (single full write; no userspace
    buffering). A no-op when the key's live payload is identical; a new
    payload for an existing key supersedes it.
    @raise Invalid_argument on a closed store; I/O errors propagate as
    [Unix.Unix_error] for the caller's firewall to classify. *)

val checkpoint : t -> unit
(** [fsync] the store — the durability barrier. Lock-free and safe to
    call from a signal handler; I/O errors are swallowed. *)

val close : t -> unit
(** Checkpoint and release the descriptor. Idempotent. *)

(** {2 Offline inspection (read-only; never mutates the file)} *)

type verify_report = {
  v_schema : int;
  v_physical_records : int;  (** records in the file, duplicates included *)
  v_distinct_keys : int;
  v_file_bytes : int;
  v_intact_bytes : int;  (** prefix that passes every integrity check *)
  v_corruption : Diag.t option;  (** the quarantine diagnostic, if any *)
}

val verify : string -> (verify_report, Diag.t) result
(** Walk every record, checking framing and checksums. *)

val contents : string -> ((string * string) list, Diag.t) result
(** Live [(key, payload)] records in first-seen order; a corrupt tail is
    ignored (it would be quarantined by {!open_}). *)

type gc_report = {
  gc_kept : int;
  gc_dropped_records : int;  (** superseded duplicates + corrupt tail *)
  gc_bytes_before : int;
  gc_bytes_after : int;
}

val gc : string -> (gc_report, Diag.t) result
(** Compact to one record per key (atomic tmp-file + rename; a crash
    mid-gc leaves the original store untouched). *)
