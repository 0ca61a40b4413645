(** Adapts one {!Spec.point} to {!Svt_core.System.of_config} and the
    workload entry points, and returns its flat metric list. This
    registry is the one way to run a point: the sweep and
    [svt_sim run]/[trace]/[profile] all go through it.

    Each run builds a fresh, fully independent system whose machine PRNG
    seed is derived from the point's {!Spec.run_hash} through
    {!Svt_engine.Prng.of_seed}, so a given run_id produces bit-identical
    metrics whether it executes sequentially, on a worker domain, or in
    a re-run campaign. *)

val default_max_sim_events : int
(** {!exec}'s default event fuel (50M): far above any real workload but
    low enough to cut a runaway run within about a minute,
    deterministically. *)

val fuel_metrics :
  events:int -> now:Svt_engine.Time.t -> max_events:int -> (string * float) list
(** The metrics of a run cut by its fuel budget, from the
    {!Svt_engine.Simulator.Budget_exhausted} payload: [sim_events],
    [sim_now_us] and the spent limit [budget.max_events]. A sweep
    records them as its timeout row; the single-point subcommands print
    them on their timeout line. *)

val make_system : ?max_sim_events:int -> Spec.point -> Svt_core.System.t
(** Build the point's system (content-addressed PRNG seed, paper
    config) without running anything — callers that want to install
    observability sinks first (the [trace] and [profile] subcommands)
    use this and then {!workload_metrics}. The optional fuel budget is
    installed on the system's simulator (default: the simulator's own
    runaway guard). *)

val workload_metrics : Spec.point -> Svt_core.System.t -> (string * float) list
(** Drive the point's workload on an already-built system and return
    its metric list (without the [sim_*] extras {!exec} appends).
    Raises [Failure] for a name outside {!Spec.stack_workload_names}: for
    consolidate and cluster the message says they are host-shaped and
    run through {!exec}. *)

val exec : ?max_sim_events:int -> Spec.point -> (string * float) list
(** Run one point to completion and return its metrics; raises on
    unknown workload or simulation failure, and
    {!Svt_engine.Simulator.Budget_exhausted} when the fuel budget
    (default [max_sim_events = default_max_sim_events]) is spent — the
    campaign layer maps that to a [timeout] ledger row carrying the
    fuel counters. Workload parameters are fixed, modest constants so
    sweeps stay fast and deterministic. Also installs a timeline sink
    and appends the per-span-kind [obs.*] summary fields
    ({!Svt_obs.Export.fields}). *)
