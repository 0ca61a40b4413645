(** The SVt architectural extension surface (paper Table 2): the three
    VMCS fields naming hardware contexts, and the helpers hypervisor code
    uses to program them and load the per-core µ-registers. *)

type kind = Vmcs_field | Instruction | Micro_register

type descriptor = { name : string; kind : kind; purpose : string }

val table2 : descriptor list
(** The paper's Table 2, verbatim. *)

val kind_name : kind -> string

val invalid : int
(** The "invalid value" stored in unused SVt fields. *)

val set_contexts : Svt_vmcs.Vmcs.t -> visor:int -> vm:int -> nested:int -> unit
(** Program a VMCS's SVt_visor / SVt_vm / SVt_nested fields. *)

val vmptrld : Svt_arch.Smt_core.t -> Svt_vmcs.Vmcs.t -> unit
(** Load the VMCS: marks it current and copies its SVt fields into the
    core's cached µ-registers (§4 step Ⓑ). *)
