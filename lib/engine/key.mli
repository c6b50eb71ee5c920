(** Content addressing for result-store keys.

    A design point is identified by what it computes from — the
    application, the clustering, the machine configuration, the scheduler
    name — not by where it appears in a sweep. Digesting those values
    gives a key that is stable across sweeps and across processes. *)

val digest_value_result : 'a -> (string, Diag.t) result
(** Hex MD5 of the value's [Marshal] representation. The value must be
    marshallable (pure data, no closures) — true of the kernel IR,
    clusterings and machine configurations. Structurally equal values
    yield equal digests. An unmarshalable value (closure, abstract block)
    is an [INVALID_APP] diagnostic, never an escaped exception — the form
    worker tasks must use. *)

val digest_value : 'a -> string
(** {!digest_value_result} for known-pure data.
    @raise Invalid_argument on an unmarshalable value. *)

val combine : string list -> string
(** Fold several components (digests, names, parameters rendered as
    strings) into one key. Component boundaries are preserved, so
    [combine ["ab"; "c"]] and [combine ["a"; "bc"]] differ. *)
