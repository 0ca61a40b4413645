(** What the L1 guest hypervisor's trap handler does for a reflected L2
    exit, read from the cost model's per-reason profile.

    A handler runs {!head_work} of pure emulation work, then {!aux_count}
    auxiliary traps into L0 (vmread/vmwrite of non-shadowed vmcs01'
    fields — Algorithm 1 lines 8–10; more of them when hardware VMCS
    shadowing is disabled), the {!aux_reason} of each by its position,
    then the exit's semantic effect, then {!tail_work}. The trap paths
    run this sequence directly; nothing is built per exit. *)

type t

val create : ?shadow:Svt_vmcs.Shadow.t -> Svt_arch.Cost_model.t -> t

val head_work : t -> Svt_arch.Exit_reason.t -> Svt_engine.Time.t
(** The work before the aux traps: half the profile's L1 pure work,
    rounded down. *)

val tail_work : t -> Svt_arch.Exit_reason.t -> Svt_engine.Time.t
(** The work after the effect: the rest of the L1 pure work. *)

val aux_count : t -> Svt_arch.Exit_reason.t -> int
(** How many aux traps the handler takes. *)

val aux_reason : int -> Svt_arch.Exit_reason.t
(** The exit reason of aux trap [i] (from 0): vmread and vmwrite
    alternate, starting with vmread. *)

val reflects : Svt_arch.Exit_reason.t -> bool
(** Whether L0 reflects this exit to L1 at all: VMX instructions are
    L1's own operations on its (emulated) virtualization hardware and
    are handled by L0 directly. *)
