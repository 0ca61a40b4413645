(** A virtual CPU: the execution vehicle for guest programs.

    The guest program runs as a simulator process (see
    {!spawn_program}); every privileged operation it performs goes
    through the [privileged] hook, which the system wiring
    ([Svt_core.System]) points at the trap path of the active run mode.
    Interrupts arrive asynchronously — devices and timers raise LAPIC
    vectors or enqueue host-side events — and are drained at
    interruptible points (compute slices, HLT), where a real CPU would
    recognize them. *)

type t

(** Host-scheduler view of the vCPU: a stand-alone stack is always
    [Running] (it owns its whole machine); a host scheduler flips
    Running/Runnable at grant/preempt boundaries, and the vCPU itself
    reports [Blocked] for the duration of the architectural HLT wait. *)
type run_state = Runnable | Running | Blocked

val create :
  machine:Machine.t ->
  vm:Vm.t ->
  index:int ->
  core_id:int ->
  hw_ctx:int ->
  t

(** {2 Identity and state} *)

val machine : t -> Machine.t
val vm : t -> Vm.t
val index : t -> int
val core_id : t -> int

val core : t -> Svt_arch.Smt_core.t
(** The physical core this vCPU is pinned to. *)

val hw_ctx : t -> int
(** The hardware context holding this level's register state (context 2
    under HW SVt, context 0 otherwise). *)

val set_hw_ctx : t -> int -> unit
val lapic : t -> Svt_interrupt.Lapic.t
val msrs : t -> Svt_arch.Msr.File.t

val breakdown : t -> Breakdown.t
(** Where every nanosecond of this vCPU's trap handling is charged. *)

val halted_time : t -> Svt_engine.Time.t

val run_state : t -> run_state
val set_run_state : t -> run_state -> unit

val name : t -> string
val wake_signal : t -> Svt_engine.Simulator.Signal.t

(** {2 Wiring hooks (set by the system builder)} *)

val set_privileged : t -> (t -> Exit.info -> unit) -> unit
(** The trap path: invoked for every privileged guest operation. *)

val set_deliver_guest_irq : t -> (t -> int -> unit) -> unit
(** Delivery of a guest-visible LAPIC vector (charges the injection
    episodes, runs the registered ISR, EOIs). *)

val set_deliver_host_event : t -> (t -> vector:int -> work:(unit -> unit) -> unit) -> unit
(** Delivery of a host-side event (an interrupt for the L1 hypervisor
    running under this vCPU's thread). *)

val register_isr : t -> vector:int -> (unit -> unit) -> unit
(** Guest-side interrupt handler, run in the vCPU process on delivery. *)

val isr_handler : t -> int -> (unit -> unit) option

(** {2 Execution (vCPU-process context)} *)

val trap : t -> Exit.info -> unit
(** Perform a privileged operation through the wired trap path. *)

val compute : t -> Svt_engine.Time.t -> unit
(** Straight-line guest computation, interruptible by pending events and
    scaled by the core's SMT interference factor. *)

val wait_for_interrupt : t -> unit
(** Idle (the architectural HLT state) until an interrupt or host event
    arrives, then drain it. *)

(** {2 Host-side events} *)

val enqueue_host_event : t -> vector:int -> (unit -> unit) -> unit
(** Queue work that needs this vCPU's physical CPU (e.g. an external
    interrupt destined for L1); runs at the next interruptible point. *)

val take_host_event : t -> (unit -> unit) option
(** Pop one raw host event's work, for the SW SVt blocked-wait loop to
    run through the SVT_BLOCKED path; [None] when none is pending. *)

val spawn_program : t -> (t -> unit) -> unit
(** Start the guest program as this vCPU's simulator process. *)
