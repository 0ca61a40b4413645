(** Cluster fault plan: per-kind Bernoulli rates, rolled once per host
    per fleet epoch by the cluster simulator. Shares the
    [kind:rate[,kind:rate...]] grammar with the stack-level {!Plan};
    {!split_of_string} parses a combined string mixing both
    vocabularies, which is what the campaign fault axis carries. *)

type t

val empty : t
val is_empty : t -> bool

val rate : t -> Cluster_kind.t -> float
(** 0.0 for kinds not in the plan. *)

val of_string : string -> (t, string) result
(** Parse [kind:rate[,...]] using cluster kind names only. Rates must
    be finite and in [0, 1]; duplicate kinds are rejected. The empty
    string is {!empty}. *)

val of_string_exn : string -> t

val to_string : t -> string
(** Canonical form: round-trips through {!of_string}. [""] for
    {!empty}. *)

val split_of_string : string -> (Plan.t * t, string) result
(** Parse a combined plan whose comma list may mix stack kinds
    ({!Kind}) and cluster kinds ({!Cluster_kind}) in any order. Each
    side canonicalizes independently; a pure stack plan yields
    [(plan, empty)] with exactly the historical canonical form, so
    existing run_ids survive. *)

val combined_to_string : Plan.t -> t -> string
(** Canonical combined form: stack entries first, then cluster
    entries. *)
