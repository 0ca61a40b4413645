(* The typed fault-outcome taxonomy: what the handling side actually did
   about a fault. [Injected k] records the fault firing at its site; the
   rest record graceful-degradation events — retries, discards, the
   SVt→baseline downgrade, the reflected VM-entry failure. Outcome
   counts are exported as `fault.*` ledger fields and obs spans, so
   sweeps can plot goodput against fault rate. *)

type t =
  | Injected of Kind.t
  | Backpressure_retry (* ring full: producer backed off and re-posted *)
  | Resume_retry (* watchdog re-posted CMD_VM_TRAP after a timeout *)
  | Downgrade (* episode fell back from SVt to baseline reflection *)
  | Entry_fail_reflected (* invalid vmcs12 reflected to L1 as entry failure *)
  | Stale_ignored (* out-of-sequence ring command discarded *)
  | Corrupt_discarded (* unparseable ring entry discarded *)
  | Irq_recovered (* lost vector re-delivered after the guest's timeout *)
  | Delegation_fault_reflected
    (* OoH: a corrupted delegated VMCS field surfaced to L1 as a
       delegation fault (L1 repairs and re-enters), not an L0 abort *)

let extras =
  [ Backpressure_retry; Resume_retry; Downgrade; Entry_fail_reflected;
    Stale_ignored; Corrupt_discarded; Irq_recovered;
    Delegation_fault_reflected ]

let all = List.map (fun k -> Injected k) Kind.all @ extras
let n = Kind.n + List.length extras

let index = function
  | Injected k -> Kind.index k
  | Backpressure_retry -> Kind.n
  | Resume_retry -> Kind.n + 1
  | Downgrade -> Kind.n + 2
  | Entry_fail_reflected -> Kind.n + 3
  | Stale_ignored -> Kind.n + 4
  | Corrupt_discarded -> Kind.n + 5
  | Irq_recovered -> Kind.n + 6
  | Delegation_fault_reflected -> Kind.n + 7

let name = function
  | Injected k -> "injected." ^ Kind.name k
  | Backpressure_retry -> "backpressure-retry"
  | Resume_retry -> "resume-retry"
  | Downgrade -> "downgrade"
  | Entry_fail_reflected -> "entry-fail-reflected"
  | Stale_ignored -> "stale-ignored"
  | Corrupt_discarded -> "corrupt-discarded"
  | Irq_recovered -> "irq-recovered"
  | Delegation_fault_reflected -> "delegation-fault-reflected"
