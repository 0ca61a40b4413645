(** Top-level wiring: build a complete virtualization stack for a chosen
    run mode and guest placement (the paper's Table 4 setups), attach
    virtio devices, and run it.

    {[
      let cfg =
        System.Config.make ~mode:Mode.Hw_svt ~level:System.L2_nested ()
      in
      let sys = System.of_config cfg in
      Svt_hyp.Vcpu.spawn_program (System.vcpu0 sys) (fun v ->
          ignore (Guest.cpuid v ~leaf:1));
      System.run sys
    ]} *)

(** Where the guest under test runs. *)
type level =
  | L0_native  (** bare metal (Figure 6's "L0" bar) *)
  | L1_leaf  (** a single-level guest of L0 ("L1" bar) *)
  | L2_nested  (** the nested guest ("L2" / SVt bars) *)

val level_name : level -> string

(** Guest interrupt vectors used by the device wiring. *)

val net_vector : int
val blk_vector : int

(** A validated system configuration, and the only way to build a stack
    ({!of_config}). {!Config.make} collects the knobs with the paper's
    defaults (x86 paper machine, one vCPU, hardware VMCS shadowing, no
    faults, the simulator's default fuel); {!Config.validate} rejects
    stacks that cannot be wired soundly — most importantly an SVt mode on a
    machine without the SMT contexts its µ-registers need, the class of
    bug where a guest silently ran with unprogrammed SVt fields. *)
module Config : sig
  type t = {
    arch : Svt_arch.Backend.kind;
        (** the architecture backend; follows the machine config and
            selects the cost table, exit spellings and nested-state
            model. On a backend without a shadow VMCS (ARM NV/VHE) the
            shadow policy collapses to [no_shadowing]. *)
    mode : Mode.t;
    level : level;
    n_vcpus : int;
    machine : Svt_hyp.Machine.config;
    shadow : Svt_vmcs.Shadow.t;
    multiplex_contexts : bool;
    faults : Svt_fault.Plan.t;
    fault_seed : int64;
    max_sim_events : int option;
        (** fuel: abort the run with {!Svt_engine.Simulator.Budget_exhausted}
            after this many processed events ([None] = the simulator's
            own runaway guard) *)
  }

  type error =
    | Invalid_vcpus of int
    | Invalid_max_sim_events of int  (** a fuel budget below one event *)
    | Insufficient_cores of {
        n_vcpus : int;
        cores : int;
        required_threads : int;
        available_threads : int;
      }
        (** topology-aware capacity check: each vCPU needs its own core,
            and vCPUs + SVt-threads (one dedicated sibling per SW SVt
            vCPU) must fit the machine's hardware threads *)
    | Svt_context_unprogrammable of { mode : Mode.t; smt_per_core : int }
        (** an SVt mode on a core without the hardware contexts its
            µ-registers address *)
    | Sw_svt_needs_smt_sibling of { smt_per_core : int }
    | Dedicated_sibling_needs_smt of { smt_per_core : int }
        (** SW SVt on a machine with [smt_per_core = 1]: the stack's
            dedicated SVt sibling has no sibling to reserve *)
    | Ooh_needs_guest_level of { level : level }
        (** OoH at [L0_native]: delegation needs a guest hypervisor to
            delegate to, so the mode only makes sense at L1/L2 *)
    | Hw_svt_needs_shadow_vmcs of { arch : Svt_arch.Backend.kind }
        (** HW SVt on a backend whose nested state is a memory image
            rather than a cached VMCS (ARM NV/VHE): the per-level
            hardware contexts extend the VMCS-caching machinery, so the
            design point does not exist on that ISA *)

  val pp_error : Format.formatter -> error -> unit

  val make :
    ?arch:Svt_arch.Backend.kind ->
    ?machine:Svt_hyp.Machine.config ->
    ?n_vcpus:int ->
    ?shadow:Svt_vmcs.Shadow.t ->
    ?multiplex_contexts:bool ->
    ?faults:Svt_fault.Plan.t ->
    ?fault_seed:int64 ->
    ?max_sim_events:int ->
    mode:Mode.t ->
    level:level ->
    unit ->
    t

  val validate : t -> (t, error list) result
  (** All errors are reported, not just the first. The [Ok] payload is
      the normalized configuration (a default HW SVt nested machine gets
      the proposal's third hardware context unless [multiplex_contexts]
      keeps the configured SMT width). *)
end

exception Invalid_config of Config.error list

type t

val of_config : Config.t -> t
(** Validate and build the stack: the simulated machine, the guest
    hypervisor VM, the guest under test with [n_vcpus] vCPUs pinned to
    distinct cores, the per-vCPU trap paths of [mode] (including
    SVt-threads on the SMT siblings under SW SVt), and the fault injector
    derived from [faults]/[fault_seed] (inert when the plan is empty).
    [shadow] selects the hardware VMCS-shadowing policy L1 runs under
    (§2.1); disabling it adds auxiliary traps.

    @raise Invalid_config when {!Config.validate} rejects it. *)

(** {2 Accessors} *)

val probe : t -> Svt_obs.Probe.t
(** The machine's probe (the emitter side of the obs layer): install a
    sink with {!Svt_obs.Probe.subscribe}. *)

val sim : t -> Svt_engine.Simulator.t
val cost : t -> Svt_arch.Cost_model.t

val guest_vm : t -> Svt_hyp.Vm.t
val vcpu : t -> int -> Svt_hyp.Vcpu.t
val vcpu0 : t -> Svt_hyp.Vcpu.t
val n_vcpus : t -> int

val nested_path : t -> int -> Nested.t
(** The nested trap path serving vCPU [i] (only when [level = L2_nested]). *)

val metrics : t -> Svt_stats.Metrics.t
(** Exit counts and per-reason handler time (the §6.2/§6.3 profiles). *)

val injector : t -> Svt_fault.Injector.t
(** The system's fault injector (inert when the fault plan is empty);
    its outcome counts are the [fault.*] ledger fields. *)

val run : ?until:Svt_engine.Time.t -> t -> unit
(** Run the simulation until the event queue drains (all guest programs
    finished) or until the given instant. *)

(** {2 Per-quantum stepping}

    A host scheduler ([Svt_sched.Host]) multiplexes many stacks over one
    shared host clock by advancing each in bounded slices instead of
    run-to-completion. *)

val next_event_at : t -> Svt_engine.Time.t option
(** The local instant of this stack's earliest pending event ([None]
    when every guest program has finished). *)

val run_slice : t -> until:Svt_engine.Time.t -> [ `Ran | `Idle ]
(** Advance the stack's local clock by one scheduling slice: process
    every event up to [until]. [`Idle] means no event fell inside the
    slice (the stack slept through it) and nothing was run. *)

(** {2 Devices} *)

val attach_net :
  ?vcpu_index:int -> t -> Svt_virtio.Virtio_net.t * Svt_virtio.Fabric.t
(** Attach a virtio-net device served by vCPU [vcpu_index] and connect it
    through the level-appropriate backend chain (L1 vhost forwarding for
    a nested guest) to a 10 GbE fabric whose other endpoint is the
    separate client machine. *)

val attach_blk : t -> Svt_virtio.Virtio_blk.t * Svt_virtio.Ramdisk.t
(** Attach a virtio-blk device over a fresh 256 MB ramdisk; for a nested
    guest the backend pays the L1-vhost nested service path. *)
