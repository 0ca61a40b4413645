(** VMCS shadowing policy: which vmcs01' fields the hardware lets L1
    access directly versus which still trap into L0 (§2.1, §2.3 — recent
    CPUs shadow some fields, but those needing complicated handling
    still trap; the remaining traps are the "L1 exits during VM-exit
    handling"). *)

type t

val hardware_shadowing_enabled : t
(** Plain guest-state and exit-information fields shadow; physical
    pointers and controls do not. *)

val no_shadowing : t
(** Every access traps (pre-shadowing hardware; the ablation case). *)

val shadowed : t -> Field.t -> bool
