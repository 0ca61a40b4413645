(* Latency/overhead model of the mechanisms a thread can use to wait for a
   cache-line write from another thread, reproducing the §6.1 channel
   microbenchmark findings:

   - polling has the lowest response latency but consumes issue slots of
     the sibling SMT thread while spinning;
   - monitor/mwait wakes a little slower (C1 exit) but leaves the sibling
     at full speed;
   - a mutex (futex) parks in the kernel: large wake cost, no stealing
     (it actually spins briefly first, hence decent small-size latency);
   - placements farther than the SMT sibling pay the coherence transfer
     of the flag line each way (cross-NUMA ~an order of magnitude more).

   The response latency here is the delay between the producer's flag
   write and the consumer starting useful work. *)

module Time = Svt_engine.Time
module Cost_model = Svt_arch.Cost_model

(* Virtual-clock backoff schedules for fault recovery: bounded
   exponential, deterministic in the attempt number. The ceiling is a
   hard invariant, not a tuning knob: the cluster layer re-admits
   evacuated tenants on the same curve, so an unbounded schedule would
   park a tenant that happened to fail often essentially forever. The
   attempt number is clamped below too — callers count attempts from 0
   or 1, and a negative attempt must not turn the shift into UB. *)
let retry_backoff_cap_attempt = 6
let watchdog_cap_attempt = 4

let retry_backoff ~attempt =
  Time.of_ns (500 * (1 lsl min (max attempt 0) retry_backoff_cap_attempt))

let watchdog_timeout ~attempt =
  Time.of_us (20 * (1 lsl min (max attempt 0) watchdog_cap_attempt))

let retry_backoff_max = retry_backoff ~attempt:retry_backoff_cap_attempt
let watchdog_timeout_max = watchdog_timeout ~attempt:watchdog_cap_attempt

let line_transfer (cm : Cost_model.t) (p : Mode.placement) =
  match p with
  | Mode.Smt_sibling -> cm.line_transfer_smt
  | Mode.Same_numa_core -> cm.line_transfer_core
  | Mode.Cross_numa -> cm.line_transfer_numa

let response_latency (cm : Cost_model.t) ~(wait : Mode.wait_mechanism)
    ~(placement : Mode.placement) =
  let transfer = line_transfer cm placement in
  match wait with
  | Mode.Polling -> Time.add transfer cm.poll_check
  | Mode.Mwait -> Time.add transfer cm.mwait_wake
  | Mode.Mutex ->
      (* brief spin phase covers the fast path, then the futex cost *)
      Time.add transfer cm.mutex_wake

(* Whether the waiter consumes execution resources of a colocated thread
   while waiting. Only polling does; mwait keeps the context in C1 and a
   mutex blocks in the kernel. *)
let steals_cycles = function
  | Mode.Polling -> true
  | Mode.Mwait | Mode.Mutex -> false

(* One-shot cost the waiter pays to *enter* the waiting state. *)
let enter_cost (cm : Cost_model.t) = function
  | Mode.Polling -> cm.poll_check
  | Mode.Mwait -> Time.of_ns 60 (* monitor setup *)
  | Mode.Mutex -> Time.of_ns 250 (* lock bookkeeping, syscall entry *)
