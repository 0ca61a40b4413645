(** What the L1 guest hypervisor's trap handler does for a reflected L2
    exit, expressed as a script of steps.

    Scripts derive from the cost model's per-reason profile: the
    handler's pure emulation work interleaved with its auxiliary traps
    into L0 (vmread/vmwrite of non-shadowed vmcs01' fields — Algorithm 1
    lines 8–10; more of them when hardware VMCS shadowing is disabled). *)

type step =
  | Work of Svt_engine.Time.t  (** pure L1 emulation work *)
  | Aux of Svt_arch.Exit_reason.t  (** a trap from L1 into L0 mid-handling *)
  | Effect of (unit -> unit)  (** semantic side effect, zero cost here *)

type script = step list

type t

val create : ?shadow:Svt_vmcs.Shadow.t -> Svt_arch.Cost_model.t -> t

val script_for : t -> Exit.info -> apply:(unit -> unit) -> script

val reflects : Svt_arch.Exit_reason.t -> bool
(** Whether L0 reflects this exit to L1 at all: VMX instructions are
    L1's own operations on its (emulated) virtualization hardware and
    are handled by L0 directly. *)
