(** The typed fault-outcome taxonomy: injected faults plus the
    graceful-degradation events the handling side took in response.
    Counts surface as [fault.<name>] ledger fields and obs spans. *)

type t =
  | Injected of Kind.t  (** the fault fired at its site *)
  | Backpressure_retry
      (** ring full: the producer backed off and re-posted *)
  | Resume_retry
      (** the stall watchdog re-posted CMD_VM_TRAP after a timeout *)
  | Downgrade
      (** an episode fell back from SVt to baseline reflection *)
  | Entry_fail_reflected
      (** an invalid vmcs12 was reflected to L1 as a VM-entry failure *)
  | Stale_ignored  (** an out-of-sequence ring command was discarded *)
  | Corrupt_discarded  (** an unparseable ring entry was discarded *)
  | Irq_recovered
      (** a lost vector was re-delivered after the guest's own timeout *)
  | Delegation_fault_reflected
      (** OoH: a corrupted delegated VMCS field surfaced to L1 as a
          delegation fault (L1 repairs and re-enters) instead of an L0
          entry abort *)

val all : t list
val n : int

val index : t -> int
(** Dense 0-based index, for per-outcome counters. *)

val name : t -> string
(** Stable dashed name ("injected.drop-ring", "downgrade", ...). *)
