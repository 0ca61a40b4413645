(** Seeded fault injector. Owns all fault randomness: each kind draws
    from its own deterministic PRNG stream (so one site's draws never
    perturb another's) and every injection/degradation outcome is
    counted for export. An injector built from {!Plan.empty} is inert —
    {!roll} is a single branch and nothing is recorded — so fault hooks
    cost nothing in clean runs. *)

type t

val create : ?seed:int64 -> Plan.t -> t
val none : unit -> t
(** Inert injector (empty plan). *)

val is_active : t -> bool

val set_observer : t -> (Outcome.t -> unit) -> unit
(** Called on every {!record} (used to emit obs spans). *)

val roll : t -> Kind.t -> bool
(** Bernoulli draw from [kind]'s stream against its plan rate. A [true]
    result records [Injected kind]. Always [false] when inert. *)

val pick : t -> Kind.t -> int -> int
(** Uniform draw in [0, n) from [kind]'s stream, for choosing a fault
    variant after {!roll} fired. Only valid on an active injector. *)

val record : t -> Outcome.t -> unit
(** Count a degradation outcome (retry, downgrade, discard, ...). An
    inert injector counts too: a clean run can still reflect an invalid
    vmcs12 that L1 itself wrote. *)

val count : t -> Outcome.t -> int
(** How many times [outcome] was recorded (injections included). *)

val fields : t -> (string * float) list
(** Per-outcome counts as [("fault." ^ name, count)] ledger fields. *)
