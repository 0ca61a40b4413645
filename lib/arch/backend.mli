(** Architecture backends: the ISA-specific surface of the stack —
    exit-reason spelling, calibrated context-switch cost table and
    capability flags — as one [match] on {!kind} per fact.

    x86/VMX keeps nested state in a hardware-cached VMCS that shadowing
    can absorb accesses to; ARM NV/VHE keeps it in memory-backed system
    registers (a VNCR-style page), so there is no shadow VMCS and every
    non-redirected access from virtual EL2 traps. That difference is why
    the baseline nested exit path is more expensive on ARM and SVt's
    relative speedup is larger (paper §7). *)

type kind = X86 | Arm

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

val cost_of : kind -> Cost_model.t

val exit_name : kind -> Exit_reason.t -> string
(** Per-backend spelling of an exit. Display-only: metric keys and
    ledger rows keep {!Exit_reason.name} so x86 artifacts stay
    byte-stable. *)

val display_name : kind -> string

val has_shadow_vmcs : kind -> bool
(** Whether hardware can absorb L1's nested-state accesses into a shadow
    structure without trapping. *)

val has_hw_svt : kind -> bool
(** Whether the HW SVt design point exists on this ISA: its per-level
    hardware contexts extend the VMCS-caching machinery, so an ISA whose
    nested state is a plain memory image has nothing for the contexts to
    multiplex. *)
