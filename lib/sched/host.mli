(** The multi-tenant consolidation host: gang-schedules many complete
    nested-virtualization stacks ({!Svt_core.System}, one simulator and
    local clock each) over [cores] × [smt_per_core] hardware threads,
    advancing a host virtual clock in fixed quanta.

    Each tenant carries a monotone local-time entitlement ([target]):
    sleeping tenants accrue it free, granted tenants simulate up to it
    via {!Svt_core.System.run_slice} (scaled down by SMT co-residency),
    and tenants that lose the gang grab accumulate steal time. SVt-
    thread provisioning costs the single-stack model does not see —
    donation wake latency per trap episode, shared-pool queueing beyond
    K threads × quantum — are charged as debt against future grants, so
    per-exit latencies remain exactly the single-stack (paper) figures
    while aggregate throughput bears the provisioning trade-off.

    Everything is deterministic: rotating-order greedy placement,
    integer-nanosecond charges, no wall clock. Same host shape + specs +
    horizon ⇒ byte-identical reports. *)

type tenant_spec = {
  name : string;
  arch : Svt_arch.Backend.kind;
      (** architecture backend of this tenant's stack: selects the cost
          table its gang pricing is computed from (default [X86]) *)
  mode : Svt_core.Mode.t;
  policy : Policy.t;
  n_vcpus : int;
  seed : int;
}

val tenant_spec :
  ?name:string ->
  ?arch:Svt_arch.Backend.kind ->
  ?policy:Policy.t ->
  ?n_vcpus:int ->
  ?seed:int ->
  Svt_core.Mode.t ->
  tenant_spec
(** Defaults: auto name ("t<index>" at admission), x86, [Policy.default],
    1 vCPU, seed 0. Every vCPU runs {!Svt_workloads.Open_loop}'s
    CPU-bound program. *)

type t

val create :
  ?quantum:Svt_engine.Time.t -> cores:int -> smt_per_core:int -> unit -> t
(** A host of [cores] cores of [smt_per_core] hardware threads each.
    Default quantum: 50 µs. Raises [Invalid_argument] on a dimension
    < 1 or a quantum <= 0. *)

val add_tenant : t -> tenant_spec -> (unit, Svt_core.System.Config.error list) result
(** Build and admit one tenant stack. Host-level feasibility (the gang
    plus any service pool must fit the host; [Dedicated_sibling]
    needs SMT ≥ 2) and the stack's own {!Svt_core.System.Config.validate}
    are both reported in the config-error vocabulary. Admission is legal
    at any point, including between {!run} calls: a late tenant starts
    with zero entitlement at the current host clock. Auto-names count
    the admission index. *)

val run : t -> horizon:Svt_engine.Time.t -> unit
(** Advance the host clock to [horizon] (or until every tenant program
    finishes — the CPU-bound program never does). Callable repeatedly to
    extend the run. With no tenants admitted the host idles: the clock
    jumps to [horizon] without counting rounds, keeping a revived
    fleet member's clock in lockstep so later admissions collect no
    back-entitlement. *)

val set_throttle : t -> float -> unit
(** Quantum inflation for a degraded host: every subsequent granted
    slice is scaled by this factor in (0, 1] (1.0 = healthy, the
    default) while the host clock ticks at full speed. Sleeping tenants
    still accrue full quanta. Raises [Invalid_argument] outside
    (0, 1]. *)

type tenant_report = {
  tenant : string;
  t_mode : Svt_core.Mode.t;
  t_policy : Policy.t;
  t_vcpus : int;
  ops : int;
  kops_per_sec : float;
  per_exit_us : float;  (** mean virtualization overhead per exit *)
  granted_ms : float;  (** entitlement received *)
  steal_ms : float;  (** runnable but not placed *)
  slept_ms : float;  (** quanta slept through *)
  wake_penalty_us : float;  (** donation wake debt charged *)
  queue_penalty_us : float;  (** shared-pool queueing debt charged *)
}

type report = {
  elapsed_ms : float;
  r_rounds : int;
  r_cores : int;
  r_smt : int;
  occupancy : float;  (** held thread-quanta / (threads × rounds) *)
  pool_utilization : float;  (** shared-pool demand served / capacity *)
  aggregate_kops : float;
  tenant_reports : tenant_report list;
}

val report : t -> report
(** Consolidation metrics as of the current host clock. *)

val fields : report -> (string * float) list
(** Flat [sched.*] ledger fields (host-wide plus per-tenant). *)

val pp_report : Format.formatter -> report -> unit
(** The consolidation table. *)

(** {2 Accessors} *)

val now : t -> Svt_engine.Time.t
val rounds : t -> int
