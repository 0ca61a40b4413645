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
module Cost = Svt_hyp.Cost

(* Virtual-clock backoff schedules for fault recovery: bounded
   exponential, deterministic in the attempt number. They are recovery
   policy, not costs of the machinery, so their constants stay here
   rather than in [Cost_model]. The ceiling is a hard invariant, not a
   tuning knob: the cluster layer re-admits evacuated tenants on the
   same curve, so an unbounded schedule would park a tenant that
   happened to fail often essentially forever. The attempt number is
   clamped below too — callers count attempts from 0 or 1, and a
   negative attempt must not turn the shift into UB. *)
let retry_backoff_cap_attempt = 6
let watchdog_cap_attempt = 4

let retry_backoff ~attempt =
  Time.of_ns (500 * (1 lsl min (max attempt 0) retry_backoff_cap_attempt))

let watchdog_timeout ~attempt =
  Time.of_us (20 * (1 lsl min (max attempt 0) watchdog_cap_attempt))

let retry_backoff_max = retry_backoff ~attempt:retry_backoff_cap_attempt
let watchdog_timeout_max = watchdog_timeout ~attempt:watchdog_cap_attempt

(* The coherence transfer of the monitored line, by placement. *)
let line_term = function
  | Mode.Smt_sibling -> "line_transfer_smt"
  | Mode.Same_numa_core -> "line_transfer_core"
  | Mode.Cross_numa -> "line_transfer_numa"

let channel term = [ Cost.charge Svt_hyp.Breakdown.Channel term ]
let line_transfer cm p = Cost.total cm Cost.no_exit 0 (channel (line_term p))

(* The consumer's wake-up, one charge: the line transfer plus the
   mechanism's wake (a mutex's brief spin phase covers the fast path,
   then the futex cost). Built once per pair, as [enters] per mechanism. *)
let wakes =
  List.map (fun (w, wake) ->
      let pair p = (p, channel (line_term p ^ "+" ^ wake)) in
      (w, List.map pair Mode.[ Smt_sibling; Same_numa_core; Cross_numa ]))
    Mode.[ (Polling, "poll_check"); (Mwait, "mwait_wake"); (Mutex, "mutex_wake") ]

let wake ~wait ~placement = List.assoc placement (List.assoc wait wakes)

let response_latency cm ~wait ~placement =
  Cost.total cm Cost.no_exit 0 (wake ~wait ~placement)

(* Whether the waiter consumes execution resources of a colocated thread
   while waiting. Only polling does; mwait keeps the context in C1 and a
   mutex blocks in the kernel. *)
let steals_cycles = function
  | Mode.Polling -> true
  | Mode.Mwait | Mode.Mutex -> false

(* One-shot cost the waiter pays to *enter* the waiting state: a first
   poll, arming the monitor, or the futex's bookkeeping and syscall. *)
let enters =
  List.map (fun (w, term) -> (w, channel term))
    Mode.[ (Polling, "poll_check"); (Mwait, "mwait_enter"); (Mutex, "mutex_enter") ]

let enter wait = List.assoc wait enters
let enter_cost cm wait = Cost.total cm Cost.no_exit 0 (enter wait)
