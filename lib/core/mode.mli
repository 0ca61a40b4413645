(** Run modes of the evaluation (paper §6).

    A mode selects how the trap-handling machinery moves control and
    state between virtualization levels; the guest-visible semantics are
    identical across modes. *)

(** How the SW SVt command-channel consumer waits (§6.1). *)
type wait_mechanism = Polling | Mwait | Mutex

(** Where the SVt-thread runs relative to the vCPU it serves (§6.1). *)
type placement =
  | Smt_sibling  (** same core, other hardware thread — the paper's choice *)
  | Same_numa_core  (** different core, same socket *)
  | Cross_numa  (** different socket: an order of magnitude slower *)

type t =
  | Baseline
      (** unmodified nested virtualization: Algorithm 1 with full context
          switches (the paper's Table 1 / "L2" configuration) *)
  | Sw_svt of { wait : wait_mechanism; placement : placement }
      (** the software-only prototype on existing SMT hardware (§5.2):
          L0↔L1 reflection over shared-memory command rings served by an
          SVt-thread *)
  | Hw_svt
      (** the proposed hardware design (§4): per-level hardware contexts,
          thread stall/resume switches, ctxtld/ctxtst register access *)
  | Hw_full_nesting
      (** the alternative design point the paper positions SVt against
          (§3): full architectural nesting support that delivers L2 traps
          straight to L1. Included as the upper-bound comparison. *)
  | Ooh
      (** Out-of-Hypervisor delegation (PAPERS.md): a delegation set of
          exit reasons and VMCS fields that L1 handles directly with no
          L0 reflection and no SVt context transform; residual exits
          still take the baseline path plus a delegation re-arm. Needs
          no SVt-thread, so consolidation prices it like [Baseline]. *)

val sw_svt_default : t
(** [Sw_svt] with mwait on the SMT sibling — the paper's configuration. *)

(** How a consolidated host provisions SVt-threads for SW SVt guests.
    Only meaningful for [Sw_svt] modes; the single-stack reproduction
    always behaves as [Dedicated_sibling]. *)
type svt_policy =
  | Dedicated_sibling
      (** the paper's setup (§5.2): the SMT sibling is reserved for the
          SVt-thread and never runs other vCPUs *)
  | Shared_pool of { threads : int }
      (** K host-wide SVt service threads serve every guest's command
          rings; excess stall demand queues on the virtual clock *)
  | On_demand_donation
      (** the sibling runs other vCPUs and is mwait-woken per trap,
          paying the {!Wait} wake latency on every episode *)

val default_svt_policy : svt_policy
(** [Dedicated_sibling]. *)

val svt_policy_name : svt_policy -> string
(** Canonical dashed name ("dedicated-sibling", "shared-pool:K",
    "on-demand-donation") — round-trips through
    {!svt_policy_of_string}. *)

val svt_policy_of_string : string -> (svt_policy, string) result

val wait_name : wait_mechanism -> string
val placement_name : placement -> string

val name : t -> string
(** Pretty display form ("sw-svt(mwait)") — for tables and span tags,
    {e not} for identity. Use {!to_string} anywhere the string is parsed
    back or hashed. *)

val to_string : t -> string
(** The canonical flat spelling ("baseline", "sw-svt",
    "sw-svt-<wait>\[@<placement>\]", "hw-svt", "hw-full-nesting", "ooh").
    Round-trips through {!of_string}; feeds [Spec.canonical_key], so the
    existing spellings are frozen. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}, plus the aliases "sw", "hw", "full" and
    "out-of-hypervisor". *)

val all : t list
(** Every inhabitant (each [Sw_svt] wait × placement spelled out), for
    round-trip property tests. *)
