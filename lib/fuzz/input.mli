(** A fuzz input: a guest program over the architectural op vocabulary,
    vmcs12 pokes applied before the first entry, and a fault plan.

    Inputs are plain data with an exact one-line text form — the corpus
    persists them in ledger rows, and the shrinker rewrites them — so
    {!of_string} [∘] {!to_string} is the structural identity for
    everything {!Gen} can produce. *)

(** One guest operation = one architectural event ([Sleep_us] is the one
    compound: a timer arm plus the HLT that waits for it). *)
type op =
  | Compute_us of int  (** straight-line computation, microseconds *)
  | Increments of int  (** dependent register increments *)
  | Cpuid of int  (** cpuid leaf *)
  | Wrmsr of int * int64  (** index into {!msrs} x value *)
  | Rdmsr of int  (** index into {!msrs} *)
  | Io_write of int * int  (** port x value *)
  | Io_read of int
  | Mmio_write of int * int  (** gpa x value *)
  | Mmio_read of int
  | Page_fault of int  (** gpa *)
  | Vmcall of int * int64  (** nr x arg *)
  | Sleep_us of int  (** arm the TSC-deadline timer, then HLT *)
  | Hlt  (** bare HLT: hangs unless something wakes the vCPU *)
  | Kick of int  (** enqueue a host event (an interrupt for L1) *)

type t = {
  ops : op list;
  pokes : (int * int64) list;
      (** vmcs12 pokes: index into {!Svt_vmcs.Field.all} x raw value *)
  plan : Svt_fault.Plan.t;
}

val empty : t

val msrs : Svt_arch.Msr.t array
(** The MSRs a fuzzed program may touch ([Wrmsr]/[Rdmsr] indices).
    Excludes IA32_TSC (reads the clock — timing, not semantics),
    IA32_TSC_DEADLINE (absolute-deadline arming; [Sleep_us] covers the
    timer path safely) and IA32_APIC_BASE. *)

val n_msrs : int

val fields : Svt_vmcs.Field.t array
(** [Svt_vmcs.Field.all] as an array (poke indices). *)

val n_fields : int
val op_to_string : op -> string

val to_string : t -> string
(** One line: [ops|pokes|plan]. *)

val of_string : string -> (t, string) result
val of_string_exn : string -> t
val equal : t -> t -> bool

val steps : t -> int
(** Reproducer size: ops + pokes. *)

val has_wait : t -> bool
(** Whether the program contains a waiting op ([Sleep_us] or [Hlt]) —
    the generator must then keep [drop-irq] out of the plan, because a
    legitimately dropped wakeup is indistinguishable from a hang. *)
