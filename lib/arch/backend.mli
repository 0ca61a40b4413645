(** Architecture backends: the ISA-specific surface of the stack —
    exit-reason spelling, calibrated context-switch cost table, and the
    nested-state model — behind a first-class module.

    x86/VMX keeps nested state in a hardware-cached VMCS that shadowing
    can absorb accesses to; ARM NV/VHE keeps it in memory-backed system
    registers (a VNCR-style page), so there is no shadow VMCS and every
    non-redirected access from virtual EL2 traps. That difference is why
    the baseline nested exit path is more expensive on ARM and SVt's
    relative speedup is larger (paper §7). *)

type kind = X86 | Arm

(** How a guest hypervisor's nested state is materialized. *)
type state_model =
  | Cached_vmcs  (** hardware-cached VMCS, shadow-able (Intel VMX) *)
  | Memory_sysregs  (** memory-backed sysreg image (ARM NV/VHE) *)

val to_string : kind -> string
(** The canonical flat spelling ("x86", "arm"). Identity-bearing like
    {!Svt_core.Mode.to_string}: it feeds [Spec.canonical_key] (where the
    default arch is elided, so existing x86 run_ids survive), the
    ledger, the CLI and the fuzzer labels. *)

val of_string : string -> (kind, string) result
(** Inverse of {!to_string}, plus the aliases "x86_64", "vmx", "intel",
    "arm64", "aarch64" and "nv". *)

val all : kind list

val default : kind
(** [X86] — the arch every pre-v4 artifact implicitly carried. *)

val equal : kind -> kind -> bool
val compare : kind -> kind -> int
val pp : Format.formatter -> kind -> unit

(** The backend interface proper. *)
module type S = sig
  val kind : kind
  val display_name : string
  val nested_state : state_model

  val has_shadow_vmcs : bool
  (** Whether hardware can absorb L1's nested-state accesses into a
      shadow structure without trapping. *)

  val has_hw_svt : bool
  (** Whether the HW SVt design point exists on this ISA: its per-level
      hardware contexts extend the VMCS-caching machinery, so an ISA
      whose nested state is a plain memory image has nothing for the
      contexts to multiplex. *)

  val cost : Cost_model.t
  val exit_name : Exit_reason.t -> string
  (** Per-backend spelling of an exit. Display-only: metric keys and
      ledger rows keep {!Exit_reason.name} so x86 artifacts stay
      byte-stable. *)

  val world_switch : string
  (** How control crosses privilege worlds, for table captions. *)
end

type t = (module S)

module X86_backend : S
module Arm_backend : S

val of_kind : kind -> t

(* Per-kind conveniences, so call sites need not unpack the module. *)
val cost_of : kind -> Cost_model.t
val exit_name : kind -> Exit_reason.t -> string
val display_name : kind -> string
val has_shadow_vmcs : kind -> bool
val has_hw_svt : kind -> bool
val nested_state_of : kind -> state_model
