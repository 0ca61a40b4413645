(* The synthetic per-tenant load of the consolidation host (lib/sched).
   A consolidated guest is CPU-bound: an endless compute-then-trap loop
   that keeps its vCPU runnable in every quantum, the shape that exposes
   SMT co-residency and SVt-thread placement trade-offs.

   The program deliberately runs forever: a host scheduler advances it
   in bounded slices, so "duration" is the host's horizon, not the
   program's. Every op ends in one cpuid — a full nested trap episode —
   so per-exit cost differences between run modes surface directly in
   tenant throughput. *)

module Time = Svt_engine.Time
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu

(* ~200 µs of guest work per trap: large enough that the guest's own
   code dominates (consolidation is about aggregate CPU capacity — the
   slot count a policy leaves — not trap micro-latency), small enough
   that per-exit cost still moves aggregate throughput by whole percents
   between modes. *)
let burst = Time.of_us 200

type counters = { mutable ops : int }

let counters () = { ops = 0 }

let spawn c vcpu =
  Vcpu.spawn_program vcpu (fun v ->
      while true do
        Guest.compute v burst;
        ignore (Guest.cpuid v ~leaf:1);
        c.ops <- c.ops + 1
      done)
