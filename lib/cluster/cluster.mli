(** The fleet: many {!Svt_sched.Host} instances behind the
    {!Admission} controller, advanced in lockstep epochs on a fleet
    virtual clock, with cluster-scope faults ({!Svt_fault.Cluster_plan})
    striking whole hosts and the controller repairing the damage —
    evacuation, capped-backoff re-admission, failure-window quarantine,
    and graceful placement degradation.

    Deterministic end to end: per-kind fault streams are keyed splits
    of the fleet seed, hosts are struck and run in id order, the
    placement scan rotates with the epoch index, and the queue follows
    submission order. Same config + submissions ⇒ byte-identical
    reports. The conservation invariant — every submitted tenant is in
    exactly one of placed / queued / rejected-with-typed-reason — is
    recomputed in every {!report}. *)

type config = {
  n_hosts : int;
  sockets : int;
  cores_per_socket : int;
  smt_per_core : int;
      (** every host has sockets × cores_per_socket × smt_per_core threads *)
  quantum : Svt_engine.Time.t;
  epoch : Svt_engine.Time.t;
      (** the fleet step: faults, expiries and admission act at this
          grain; must be >= the quantum *)
  admission : Admission.config;
  plan : Svt_fault.Cluster_plan.t;
  seed : int64;  (** root of the per-kind fault streams *)
}

val default_config : config
(** 4 hosts of 1×4×2, 50 µs quantum, 250 µs epoch, no faults,
    {!Admission.default_config}. A host struck 3 times (crash or flap)
    within 40 epochs is quarantined for good. *)

val validate_config : config -> (config, string) result
(** [Error] names the first offending field: a host count or dimension
    < 1, a quantum <= 0, an epoch shorter than the quantum, or an
    invalid {!Admission.config}. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on an invalid config. *)

val submit : t -> Svt_sched.Host.tenant_spec -> string
(** Enqueue a tenant for admission and return its fleet-unique name
    (auto-named ["t<n>"] by submission index when the spec's name is
    empty). Quota violations reject immediately (typed); everything
    else is decided at the next epoch, and a tenant that fails 10
    placement attempts is rejected with [Retries_exhausted]. Raises [Invalid_argument] on a
    duplicate name. *)

val run : t -> horizon:Svt_engine.Time.t -> unit
(** Advance the fleet clock to [horizon], one epoch at a time: expire
    outages (revived hosts come back fresh, idled forward — in-flight
    work is genuinely lost), roll the fault plan, process the
    admission queue, then run every live host to the epoch boundary.
    Callable repeatedly. *)

val now : t -> Svt_engine.Time.t

(** {2 Reporting} *)

type tenant_row = {
  tr_name : string;
  tr_mode : Svt_core.Mode.t;  (** effective (post-downgrade) *)
  tr_policy : Svt_sched.Policy.t;
  tr_state : string;  (** ["h<id>"], ["queued"], or a rejection token *)
  tr_evictions : int;
  tr_readmissions : int;
  tr_downgrades : int;
  tr_kops : float;
  tr_per_exit_us : float;
}

type host_row = {
  hr_id : int;
  hr_state : string;  (** up | degraded | down | quarantined *)
  hr_tenants : int;
  hr_occupancy : float;
  hr_kops : float;
  hr_crashes : int;
  hr_flaps : int;
  hr_degrades : int;
  hr_revivals : int;
}

type report = {
  r_epochs : int;
  r_elapsed_ms : float;
  r_hosts : int;
  r_hosts_up : int;
  r_hosts_quarantined : int;
  r_submitted : int;
  r_placed : int;
  r_queued : int;
  r_rejected : int;
  r_evictions : int;
  r_readmissions : int;
  r_downgrades : int;
  r_quarantines : int;
  r_survivor_p99_per_exit_us : float;
      (** p99 of mean per-exit overhead across currently-placed tenants *)
  r_aggregate_kops : float;
  r_conserved : bool;
      (** placed + queued + rejected = submitted — no tenant silently
          lost *)
  host_rows : host_row list;
  tenant_rows : tenant_row list;
}

val report : t -> report

val fields : report -> (string * float) list
(** Flat [cluster.*] ledger fields: fleet totals, then per-host and
    per-tenant in stable order. *)

val pp_report : Format.formatter -> report -> unit
(** Fleet summary plus the host and tenant tables. *)
