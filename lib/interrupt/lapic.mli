(** Local APIC model: per-vCPU interrupt state (IRR/ISR bitmaps,
    priority, EOI) plus the TSC-deadline timer.

    Delivery is two-phase like hardware: {!raise_vector} sets the IRR
    bit and notifies the owner through the pending callback; the owner
    later {!ack}s the highest-priority vector (IRR → ISR) and finally
    signals {!eoi}. Timer re-arming (guests writing IA32_TSC_DEADLINE)
    is the MSR_WRITE exit traffic the paper profiles in §6.3. *)

type t

val create : Svt_engine.Simulator.t -> t

val set_on_pending : t -> (int -> unit) -> unit
(** Called once per vector transition to pending (coalesced re-raises
    don't fire it again). *)

val raise_vector : t -> int -> unit
(** Assert a vector (16–255). Re-raising a pending vector coalesces. *)

val has_pending : t -> bool

val ack : t -> int option
(** Accept the highest-priority pending vector for service. *)

val eoi : t -> unit
(** Retire the highest in-service vector. *)

val in_service : t -> int -> bool

val arm_deadline : t -> deadline:Svt_engine.Time.t -> unit
(** TSC-deadline semantics: a new write replaces the previous deadline;
    zero disarms; a past deadline fires immediately. *)
