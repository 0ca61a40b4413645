(** Typed spans: the unit of the observability layer. One span is one
    timed step of the virtualization protocol on the shared virtual
    clock, tagged with the vCPU, level and free-form key/value context
    (exit reason, run mode, switch leg, transform direction). *)

module Time = Svt_engine.Time

type kind =
  | Vm_exit  (** one full trap-handling episode, any level/mode *)
  | World_switch  (** a software world-switch leg (trap or resume) *)
  | Svt_trap  (** HW SVt: stall the guest context, fetch from L0's *)
  | Svt_stall  (** SW SVt: L0 blocked on the SVt-thread *)
  | Svt_resume  (** the resume-into-guest leg closing an episode *)
  | Vmcs_transform  (** vmcs12 <-> vmcs02 transform *)
  | Ring_send  (** command posted into an SVt ring *)
  | Ring_recv  (** command consumed from an SVt ring *)
  | Irq_inject  (** interrupt injection sequence into a guest *)
  | Halt  (** vCPU idle in the architectural HLT state *)
  | Fault  (** an injected fault or its degradation outcome *)

val all_kinds : kind list
val n_kinds : int

val kind_index : kind -> int
(** Dense 0-based index, for per-kind arrays. *)

val kind_name : kind -> string
(** Stable dashed name ("vm-exit", "svt-resume", ...), used in Chrome
    trace events and ledger field names. *)

type t = {
  kind : kind;
  vcpu : int;  (** vCPU index; -1 when not tied to one *)
  level : int;  (** virtualization level of the guest involved *)
  core : int;  (** physical core (hardware lane id); -1 when untagged *)
  ctx : int;  (** hardware context (SMT thread) on that core; -1 *)
  start : Time.t;
  stop : Time.t;
  tags : (string * string) list;
}

val has_lane : t -> bool
(** Whether the span carries a hardware lane ([core >= 0]); such spans
    land on a per-hardware-thread track in the Chrome-trace export. *)

val duration_ns : t -> int
val tag : t -> string -> string option

val key_tags : string list
(** The tags that name a handler path, in a fixed order: the coverage
    map hashes their values and the profiler labels frames with them.
    Numeric payload tags (vectors, ports, field counts) are not among
    them. *)
