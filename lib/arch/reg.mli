(** Architectural register names. The cardinality of {!switched_set} —
    the registers a VM trap/resume exchanges — drives both the baseline
    save/restore cost and the SVt cross-context access cost ("dozens of
    registers", paper §1). *)

type gpr =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

type t =
  | Gpr of gpr
  | Rip
  | Rflags
  | Cr of int
  | Dr of int
  | Segment of string

val all_gprs : gpr list
val name : t -> string

val switched_set : t list
(** Everything the hypervisor thunk plus KVM's lazy switching touch on a
    world switch. *)

val switched_count : int

val slot : t -> int
(** Index of a register in {!switched_set} ([0 .. switched_count - 1]),
    or [-1] for a register outside it. *)
