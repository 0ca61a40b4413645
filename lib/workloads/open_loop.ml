(* Synthetic per-tenant load shapes for the consolidation host
   (lib/sched). A consolidated guest is either CPU-bound — an endless
   compute-then-trap loop that keeps its vCPU runnable in every quantum,
   the shape that exposes SMT co-residency and SVt-thread placement
   trade-offs — or an open-loop request server with exponential
   inter-arrival gaps, which sleeps between requests and measures the
   scheduling (queueing + service) latency each request observes.

   Both shapes deliberately run forever: a host scheduler advances them
   in bounded slices, so "duration" is the host's horizon, not the
   program's. Every op ends in one cpuid — a full nested trap episode —
   so per-exit cost differences between run modes surface directly in
   tenant throughput. *)

module Time = Svt_engine.Time
module Proc = Svt_engine.Simulator.Proc
module Prng = Svt_engine.Prng
module Histogram = Svt_stats.Histogram
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu

type shape =
  | Cpu_bound of { burst : Time.t }
  | Open_arrivals of { mean_gap : Time.t; burst : Time.t }

(* ~200 µs of guest work per trap: large enough that the guest's own
   code dominates (consolidation is about aggregate CPU capacity — the
   slot count a policy leaves — not trap micro-latency), small enough
   that per-exit cost still moves aggregate throughput by whole percents
   between modes. *)
let default_burst = Time.of_us 200
let cpu_bound = Cpu_bound { burst = default_burst }

type counters = {
  mutable ops : int;
  latency : Histogram.t;
      (* arrival->completion ns; only the open shape records samples *)
}

let counters () = { ops = 0; latency = Histogram.create () }

let spawn ~shape ~seed c vcpu =
  Vcpu.spawn_program vcpu (fun v ->
      match shape with
      | Cpu_bound { burst } ->
          while true do
            Guest.compute v burst;
            ignore (Guest.cpuid v ~leaf:1);
            c.ops <- c.ops + 1
          done
      | Open_arrivals { mean_gap; burst } ->
          let rng = Prng.create seed in
          let next = ref Time.zero in
          while true do
            let gap =
              Prng.exponential rng ~mean:(float_of_int (Time.to_ns mean_gap))
            in
            next := Time.add !next (Time.of_ns (max 1 (int_of_float gap)));
            (* sleep to the arrival instant; wake-ups can be spurious
               (host events), so re-arm until the deadline passes *)
            while Time.(Proc.now () < !next) do
              Guest.arm_timer v ~after:(Time.diff !next (Proc.now ()));
              Guest.hlt v
            done;
            Guest.compute v burst;
            ignore (Guest.cpuid v ~leaf:1);
            c.ops <- c.ops + 1;
            Histogram.add c.latency (Time.to_ns (Time.diff (Proc.now ()) !next))
          done)
