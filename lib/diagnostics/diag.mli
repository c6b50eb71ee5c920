(** Structured diagnostics for the whole scheduling stack.

    Every failure the stack can produce — legitimate infeasibility (a
    cluster's footprint exceeding the frame buffer, no feasible reuse
    factor), malformed inputs, simulator divergence, crashed pool tasks,
    damaged stores — is described by one {!t}: a
    machine-readable {!code}, the cluster/kernel/data context it refers
    to, a severity, and a human rendering. Producers build diagnostics
    with {!v}; consumers either match on {!code} (machine path) or print
    {!to_string} / {!render} (human path).

    [to_string] deliberately reproduces the legacy [string] error texts
    the schedulers used to return (["cds: some cluster's DS(C) exceeds
    …"]), so threading [Diag.t] through an API needs only
    [Result.map_error Diag.to_string] to stay message-compatible. *)

type code =
  | Fb_overflow  (** a cluster footprint exceeds the FB set even at RF=1 *)
  | Cm_overflow  (** a cluster's context words exceed the context memory *)
  | No_feasible_rf  (** no reuse factor >= 1 satisfies [DS(C) <= FBS] *)
  | Invalid_app  (** malformed application: kernels, data, iterations *)
  | Invalid_clustering  (** malformed clustering or partition *)
  | Invalid_config  (** malformed machine configuration *)
  | Sim_divergence  (** the semantic validator rejected a schedule *)
  | Task_crashed  (** a pool task raised an unexpected exception *)
  | Store_corrupt
      (** an on-disk store record (or tail) failed its integrity check and
          was quarantined; warnings mean the affected points recompute *)
  | Sweep_mismatch
      (** on-disk sweep state does not belong to the sweep being resumed
          (different application, axes, scheduler set or schema version) *)

type severity = Warning | Error

type t = {
  code : code;
  severity : severity;
  scheduler : string option;  (** "basic" | "ds" | "cds" when known *)
  cluster : int option;  (** offending cluster id *)
  kernel : string option;  (** offending kernel name *)
  data : string option;  (** offending data-object name *)
  message : string;  (** human text, without any scheduler prefix *)
  backtrace : string option;  (** raw backtrace of a crashed task *)
}

val v :
  ?severity:severity ->
  ?scheduler:string ->
  ?cluster:int ->
  ?kernel:string ->
  ?data:string ->
  ?backtrace:string ->
  code ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [v code fmt …] builds a diagnostic; severity defaults to [Error]. *)

val code_name : code -> string
(** Stable upper-snake identifier, e.g. ["FB_OVERFLOW"] — the
    machine-readable error-code namespace. *)

val with_scheduler : string -> t -> t
(** Tag (or re-tag) the diagnostic with the scheduler that raised it. *)

val to_string : t -> string
(** Legacy-compatible text: the message prefixed with ["<scheduler>: "]
    when a scheduler is recorded — exactly the strings the pre-diagnostic
    APIs returned. *)

val render : t -> string
(** Full structured rendering:
    ["[E:FB_OVERFLOW basic] message (cluster 2)"], plus the backtrace on
    its own lines when present. *)
