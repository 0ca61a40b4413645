(** The §6.1 communication-channel microbenchmark ("numbers not shown for
    brevity" in the paper, reproduced here in full): request/response
    latency over a shared cache line under each waiting mechanism and
    placement, with a variable compute workload on the requesting side.

    The findings this reproduces: polling is fastest at small workloads
    but steals SMT cycles as the sibling's workload grows; cross-NUMA
    costs an order of magnitude; mutex amortizes its startup at large
    workloads; mwait is the compromise. *)

type mechanism = Function_call | Wait of Svt_core.Mode.wait_mechanism

val mechanism_name : mechanism -> string

type sample = {
  mechanism : mechanism;
  placement : Svt_core.Mode.placement;
  workload_increments : int;
  round_trip_us : float;
  worker_slowdown : float;
      (** compute-time inflation on the working thread (SMT interference) *)
}

val sweep : unit -> sample list
(** Every mechanism × placement (placement is moot for a function call)
    × workload of 0, 100, 1,000, 10,000 and 100,000 increments, on the
    paper machine. *)

val effective_cost_us : sample -> workload_us:float -> float
(** Round trip plus the interference the waiter inflicts on the worker's
    own computation — the quantity that makes mwait win overall. *)
