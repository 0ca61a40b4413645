(** SVt-thread provisioning policies priced as concrete gang claims.
    The type is an alias of {!Svt_core.Mode.svt_policy}, where the
    benchmark names its constructors; naming and parsing delegate
    there. *)

type t = Svt_core.Mode.svt_policy =
  | Dedicated_sibling
  | Shared_pool of { threads : int }
  | On_demand_donation

val default : t
val name : t -> string
val of_string : string -> (t, string) result

val label : Svt_core.Mode.t -> t -> string
(** A (mode, policy) configuration's display label: ["sw-svt/POLICY"]
    for SW SVt modes, the bare mode name otherwise (the policy places
    SVt-threads, which only SW SVt runs). *)

(** What one tenant's vCPU gang occupies under a (mode, policy) pair:
    one hardware thread per vCPU, or a whole core per vCPU. *)
type claim = {
  whole_core : bool;
      (** the gang claims full cores: reserved siblings admit no
          co-runner (HW SVt, and SW SVt under [Dedicated_sibling]) *)
  pool_threads : int;
      (** host-global SVt service threads this policy reserves *)
  donation : bool;
      (** the sibling is donated to other work and mwait-woken per trap
          episode *)
}

val claim : mode:Svt_core.Mode.t -> t -> claim

val gang_threads : smt_per_core:int -> n_vcpus:int -> claim -> int
(** Hardware threads the gang occupies while granted (excluding the
    host-global pool). *)

val host_threads : smt_per_core:int -> n_vcpus:int -> claim -> int
(** Hardware threads a host must have for the tenant: the gang plus the
    policy's pool threads. *)

val donation_wake_cost : Svt_arch.Cost_model.t -> Svt_core.Mode.t -> Svt_engine.Time.t
(** Per-episode charge of waking a donated (non-parked) SVt-thread:
    wait-entry setup plus the {!Svt_core.Wait} response latency of the
    mode's wait mechanism and placement; zero for non-SW-SVt modes. *)
