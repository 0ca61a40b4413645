(** Cluster-scope fault kinds: faults that strike whole simulated hosts
    in a fleet rather than one site inside a stack. Names double as the
    plan-grammar tokens ([host-crash:0.01]); magnitudes (outage spans,
    the degrade inflation factor) are fixed model parameters so plans
    differing only in rates stay comparable. *)

type t =
  | Host_crash  (** the host dies; every tenant on it is evacuated *)
  | Host_degrade
      (** quantum inflation: each scheduling round grants tenants
          [1/degrade_inflation] of the normal entitlement *)
  | Host_flap  (** a short, repeating outage — quarantine bait *)

val all : t list
val n : int
val index : t -> int
val name : t -> string

val outage_epochs : t -> int
(** Fleet epochs a struck host stays down (0 for [Host_degrade]: the
    host stays up, slower). *)

val degrade_epochs : int
(** Epochs one degrade episode lasts. *)

val degrade_inflation : float
(** Quantum-inflation factor of a degraded host: granted entitlement
    per round is divided by this. *)
