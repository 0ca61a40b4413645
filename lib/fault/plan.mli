(** A fault plan: per-kind Bernoulli rates, parsed from the
    [kind:rate[,kind:rate,...]] grammar shared by [svt_sim run --fault]
    and the campaign [fault] axis. *)

type t

val empty : t
(** No faults. Systems built with the empty plan behave bit-identically
    to systems built without an injector at all. *)

val is_empty : t -> bool
val entries : t -> (Kind.t * float) list
val rate : t -> Kind.t -> float

val of_string : string -> (t, string) result
(** Parse ["drop-ring:0.01,corrupt-vmcs12:0.05"]. The empty string is
    {!empty}. Unknown kinds, unparseable or out-of-range rates, and
    duplicate kinds are reported as [Error]. *)

val of_string_exn : string -> t

val gen : Svt_engine.Prng.t -> t
(** Seeded random plan (0–3 kinds, centi-grid rates in (0, 0.2]) in
    canonical form: the fuzzer's plan generator. Rates on the centi-grid
    survive {!to_string}/{!of_string} exactly. *)

val mutate : Svt_engine.Prng.t -> t -> t
(** One seeded mutation step — add a kind, drop a kind, or re-draw one
    rate — returning a canonical (and therefore round-trippable) plan.
    The fuzzer's corpus mutator calls this on kept inputs' plans. *)

val to_string : t -> string
(** Canonical form: entries sorted by kind, zero rates dropped;
    round-trips through {!of_string}. *)

val pp : Format.formatter -> t -> unit
