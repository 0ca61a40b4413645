(** Adapts one {!Spec.point} to {!Svt_core.System.of_config} and the
    workload entry points, and returns a uniform result record for the
    ledger. This registry is the one way to run a point: the sweep and
    [svt_sim run]/[trace]/[profile] all go through it.

    Each run builds a fresh, fully independent system whose machine PRNG
    seed is derived from the point's {!Spec.run_hash} through
    {!Svt_engine.Prng.of_seed}, so a given run_id produces bit-identical
    metrics whether it executes sequentially, on a worker domain, or in
    a re-run campaign. *)

type status =
  | Run_ok
  | Run_failed of string
  | Run_timeout
      (** the run exceeded its budget — either the pool's cooperative
          wall-clock timeout (metrics are still recorded: the work
          finished, just too slowly) or the simulator's deterministic
          fuel budget (the fuel counters become the metrics) *)
  | Run_quarantined of string
      (** pulled from retry after K consecutive failures; the payload
          carries the final exception and its backtrace *)

val status_name : status -> string
(** "ok", "failed", "timeout", "quarantined". *)

type result = {
  point : Spec.point;
  run_id : string;
  status : status;
  attempts : int;
  wall_s : float;  (** host wall-clock of the final attempt *)
  metrics : (string * float) list;
      (** workload metrics plus [sim_events] and [sim_now_us];
          empty unless [status = Run_ok] *)
}

val workload_names : string list
(** The registry: cpuid, rr, stream, ioping, fio, etc, tpcc, video,
    spin (a deliberately hung reflection loop for exercising the fuel
    budget — never run it without one), and the host-shaped consolidate
    and cluster. *)

val stack_workload_names : string list
(** The workloads that drive one stack, i.e. {!workload_names} without
    consolidate and cluster: the ones {!make_system} +
    {!workload_metrics} can run. *)

val default_max_sim_events : int
(** {!exec}'s default event fuel (50M): far above any real workload but
    low enough to cut a runaway run in seconds, deterministically. *)

val fuel_metrics :
  events:int ->
  now:Svt_engine.Time.t ->
  Svt_engine.Simulator.fuel ->
  (string * float) list
(** The metrics of a run cut by its fuel budget, from the
    {!Svt_engine.Simulator.Budget_exhausted} payload: [sim_events],
    [sim_now_us] and the spent limit ([budget.max_events] or
    [budget.max_time_us]). A sweep records them as its timeout row; the
    single-point subcommands print them on their timeout line. *)

val make_system :
  ?max_sim_events:int ->
  ?max_sim_time:Svt_engine.Time.t ->
  Spec.point ->
  Svt_core.System.t
(** Build the point's system (content-addressed PRNG seed, paper
    config) without running anything — callers that want to install
    observability sinks first (the [trace] and [profile] subcommands)
    use this and then {!workload_metrics}. The optional fuel budget is
    installed on the system's simulator (default: none). *)

val workload_metrics : Spec.point -> Svt_core.System.t -> (string * float) list
(** Drive the point's workload on an already-built system and return
    its metric list (without the [sim_*] extras {!exec} appends).
    Raises [Failure] for a name outside {!stack_workload_names}: for
    consolidate and cluster the message says they are host-shaped and
    run through {!exec}. *)

val exec :
  ?max_sim_events:int ->
  ?max_sim_time:Svt_engine.Time.t ->
  Spec.point ->
  (string * float) list
(** Run one point to completion and return its metrics; raises on
    unknown workload or simulation failure, and
    {!Svt_engine.Simulator.Budget_exhausted} when the fuel budget
    (default [max_sim_events = default_max_sim_events]) is spent — the
    campaign layer maps that to a [timeout] ledger row carrying the
    fuel counters. Workload parameters are fixed, modest constants so
    sweeps stay fast and deterministic. Also installs a timeline sink
    and appends the per-span-kind [obs.*] summary fields
    ({!Svt_obs.Export.fields}). *)
