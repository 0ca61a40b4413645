(* The typed event model of the observability layer: a span is one timed
   step of the virtualization protocol (an exit episode, a world switch, a
   transform, a command-ring operation), tagged with where it happened.
   Emitters produce spans through [Probe]; sinks ([Timeline],
   [Chrome_trace]) consume them without the emitters knowing. *)

module Time = Svt_engine.Time

type kind =
  | Vm_exit (* one full trap-handling episode, any level/mode *)
  | World_switch (* a software world-switch leg (trap or resume) *)
  | Svt_trap (* HW SVt: stall the guest context, fetch from L0's *)
  | Svt_stall (* SW SVt: L0 blocked on the SVt-thread *)
  | Svt_resume (* the resume-into-guest leg closing an episode *)
  | Vmcs_transform (* vmcs12 <-> vmcs02 transform (Algorithm 1 step 2) *)
  | Ring_send (* command posted into an SVt ring *)
  | Ring_recv (* command consumed from an SVt ring *)
  | Irq_inject (* interrupt injection sequence into a guest *)
  | Halt (* vCPU idle in the architectural HLT state *)
  | Fault (* an injected fault or its degradation outcome *)

let all_kinds =
  [ Vm_exit; World_switch; Svt_trap; Svt_stall; Svt_resume; Vmcs_transform;
    Ring_send; Ring_recv; Irq_inject; Halt; Fault ]

let n_kinds = List.length all_kinds

let kind_index = function
  | Vm_exit -> 0
  | World_switch -> 1
  | Svt_trap -> 2
  | Svt_stall -> 3
  | Svt_resume -> 4
  | Vmcs_transform -> 5
  | Ring_send -> 6
  | Ring_recv -> 7
  | Irq_inject -> 8
  | Halt -> 9
  | Fault -> 10

let kind_name = function
  | Vm_exit -> "vm-exit"
  | World_switch -> "world-switch"
  | Svt_trap -> "svt-trap"
  | Svt_stall -> "svt-stall"
  | Svt_resume -> "svt-resume"
  | Vmcs_transform -> "vmcs-transform"
  | Ring_send -> "ring-send"
  | Ring_recv -> "ring-recv"
  | Irq_inject -> "irq-inject"
  | Halt -> "halt"
  | Fault -> "fault"

type t = {
  kind : kind;
  vcpu : int; (* vCPU index; -1 when not tied to one *)
  level : int; (* virtualization level of the guest involved *)
  core : int; (* physical core (hardware lane); -1 when untagged *)
  ctx : int; (* hardware context (SMT thread) on that core; -1 *)
  start : Time.t;
  stop : Time.t;
  tags : (string * string) list; (* reason, mode, leg, direction, ... *)
}

(* Spans carrying a core/ctx pair land on a per-hardware-thread lane in
   the Chrome-trace export; untagged ones keep the per-vCPU lanes. *)
let has_lane s = s.core >= 0

let duration s = Time.diff s.stop s.start
let duration_ns s = Time.to_ns (duration s)
let tag s name = List.assoc_opt name s.tags

(* The tags that name a handler path, in the order the coverage hash
   folds them. Numeric payload tags (field counts, vectors, ports) are
   deliberately excluded: they would turn path coverage into value
   coverage and saturate the map. *)
let key_tags = [ "reason"; "mode"; "leg"; "cause"; "dir"; "cmd"; "outcome" ]
