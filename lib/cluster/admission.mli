(** Pure decision logic of the fleet admission controller: quota and
    overcommit checks, bin-pack vs. spread host selection, the
    placement-degradation ladder, and the re-admission backoff curve
    (the {!Svt_core.Wait.retry_backoff} shape re-denominated in fleet
    epochs, hard cap included). {!Cluster} drives these against live
    hosts; keeping them pure makes every rule unit-testable. *)

type strategy = Bin_pack | Spread

val strategy_name : strategy -> string
val strategy_of_string : string -> (strategy, string) result

type config = {
  strategy : strategy;
  overcommit : float;
      (** committed gang threads on a host may not exceed
          [overcommit x hardware threads]; >= 1 *)
  quota_vcpus : int;  (** largest gang one tenant may request *)
}

val default_config : config
(** bin-pack, overcommit 1.5, quota 8 vCPUs. *)

val validate_config : config -> (config, string) result

(** Why a tenant is not placed: its vCPUs exceed the quota, its
    placement attempts ran out, or no host's topology can run its spec.
    Every unplaced tenant ends in exactly one of these — the typed half
    of the fleet's conservation invariant (no tenant silently lost). *)
type rejection = Quota_exceeded | Retries_exhausted | Config_rejected

val rejection_token : rejection -> string
(** Short stable token for ledgers and tables: ["quota"], ["retries"],
    ["config"]. *)

type host_view = { id : int; committed : int; capacity : int }
(** A live host as the controller sees it: gang threads already
    committed vs. hardware threads. *)

val fits : config -> need:int -> host_view -> bool

val pick : config -> need:int -> host_view list -> int option
(** Choose a host for a [need]-thread gang from the live hosts, listed
    in the controller's rotated scan order. Bin-pack: first fit in scan
    order. Spread: least committed, ties to the lowest id. Placement is
    a pure function of the views. *)

val ladder :
  mode:Svt_core.Mode.t ->
  policy:Svt_sched.Policy.t ->
  (Svt_core.Mode.t * Svt_sched.Policy.t) list
(** Placement candidates cheapest-last, starting at the tenant's
    current (sticky) placement: dedicated sibling → 2-thread shared
    pool → on-demand donation → baseline mode as the last resort.
    Modes whose footprint the policy cannot change get no intermediate
    rungs. *)

val backoff_epochs : attempt:int -> int
(** Fleet epochs a tenant waits after its [attempt]-th failed
    placement: 1, 2, 4, ... doubling with the same hard cap as
    {!Svt_core.Wait.retry_backoff} ({!backoff_epochs_max}). *)

val backoff_epochs_max : int
