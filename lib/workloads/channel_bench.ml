(* The §6.1 communication-channel microbenchmark ("numbers not shown for
   brevity" in the paper, reproduced here in full): measure the latency of
   a request/response over a shared cache line between two threads, under
   each waiting mechanism (function call baseline, polling, mwait, mutex)
   and each placement (SMT sibling, same-NUMA core, cross-NUMA), while the
   requesting side runs a variable compute workload between requests.

   The paper's qualitative findings this must reproduce:
   - polling has the lowest latency at small workloads but slows the
     sibling down as the workload grows (SMT interference);
   - cross-NUMA placement costs about an order of magnitude more;
   - mutex has a large startup cost, amortized at large workloads;
   - mwait is slightly better than mutex at large workloads and slightly
     worse at small ones — the chosen compromise. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Cost_model = Svt_arch.Cost_model
module Smt_core = Svt_arch.Smt_core
module Mode = Svt_core.Mode
module Wait = Svt_core.Wait

type mechanism = Function_call | Wait of Mode.wait_mechanism

let mechanism_name = function
  | Function_call -> "call"
  | Wait w -> Mode.wait_name w

type sample = {
  mechanism : mechanism;
  placement : Mode.placement;
  workload_increments : int;
  round_trip_us : float;
  worker_slowdown : float; (* compute-time inflation on the working thread *)
}

(* One configuration: a "worker" thread performs [workload] dependent
   increments, then requests a tiny service from a "server" thread and
   waits for the reply; the server waits for requests using the mechanism
   under test. The reported latency is the full round trip minus the
   workload itself, averaged over [iterations] round trips on the paper
   machine. *)
let iterations = 200
let cm = Cost_model.paper_machine

let measure ~mechanism ~placement ~workload =
  let sim = Simulator.create () in
  let core = Smt_core.create ~id:0 () in
  (* nominal cycle time at 2.4 GHz *)
  let workload_span n = Time.of_ns (int_of_float (float_of_int n /. 2.4 +. 0.5)) in
  match mechanism with
  | Function_call ->
      (* same thread: the service is a function call *)
      let total = ref Time.zero in
      Simulator.spawn sim (fun () ->
          let t0 = Proc.now () in
          for _ = 1 to iterations do
            Proc.delay (workload_span workload);
            Proc.delay (Time.of_ns 30) (* the service body *)
          done;
          total := Time.diff (Proc.now ()) t0);
      Simulator.run sim;
      let per = Time.to_us_f !total /. float_of_int iterations in
      {
        mechanism;
        placement;
        workload_increments = workload;
        round_trip_us = per -. Time.to_us_f (workload_span workload);
        worker_slowdown = 1.0;
      }
  | Wait w ->
      let request = Simulator.Signal.create sim in
      let reply = Simulator.Signal.create sim in
      let line = Wait.line_transfer cm placement in
      let wake = Wait.response_latency cm ~wait:w ~placement in
      let polling_interferes =
        Wait.steals_cycles w && placement = Mode.Smt_sibling
      in
      (* server: park with the mechanism, serve, ring back *)
      Simulator.spawn sim ~name:"server" (fun () ->
          if polling_interferes then Smt_core.set_polling_siblings core 1;
          let rec serve () =
            Simulator.Signal.wait request;
            Proc.delay wake;
            Proc.delay (Time.of_ns 30);
            (* reply flag write travels back *)
            Proc.delay line;
            Simulator.Signal.broadcast reply;
            serve ()
          in
          serve ());
      let total = ref Time.zero in
      Simulator.spawn sim ~name:"worker" (fun () ->
          let t0 = Proc.now () in
          for _ = 1 to iterations do
            (* the workload suffers SMT interference from a polling server *)
            Proc.delay (Smt_core.scale_compute core (workload_span workload));
            Proc.delay (Wait.enter_cost cm w);
            Simulator.Signal.broadcast request;
            Simulator.Signal.wait reply
          done;
          total := Time.diff (Proc.now ()) t0);
      Simulator.run sim;
      let per = Time.to_us_f !total /. float_of_int iterations in
      {
        mechanism;
        placement;
        workload_increments = workload;
        round_trip_us = per -. Time.to_us_f (workload_span workload);
        worker_slowdown = Smt_core.interference_factor core;
      }

let workloads = [ 0; 100; 1_000; 10_000; 100_000 ]
let mechanisms = [ Function_call; Wait Mode.Polling; Wait Mode.Mwait; Wait Mode.Mutex ]
let placements = [ Mode.Smt_sibling; Mode.Same_numa_core; Mode.Cross_numa ]

(* The full sweep. *)
let sweep () =
  List.concat_map
    (fun mechanism ->
      List.concat_map
        (fun placement ->
          List.map
            (fun workload -> measure ~mechanism ~placement ~workload)
            workloads)
        (match mechanism with
        | Function_call -> [ Mode.Smt_sibling ] (* placement is moot *)
        | Wait _ -> placements))
    mechanisms

(* Effective cost of one round trip including the interference the waiter
   inflicts on the worker's own computation — the quantity that makes
   mwait win overall (§6.1's conclusion). *)
let effective_cost_us s ~workload_us =
  s.round_trip_us +. (workload_us *. (s.worker_slowdown -. 1.0))
