(** Domain-based worker pool for embarrassingly parallel run matrices.

    [jobs = 1] never spawns a domain: tasks run sequentially in the
    caller, which keeps tier-1 tests and reference ledgers fully
    deterministic. [jobs > 1] spawns that many worker domains pulling
    task indices from a shared atomic counter; each result slot is
    written by exactly one worker, so no locking is needed on results.

    Every task runs exactly once: a run is a pure function of its input,
    so repeating a failure would only pay for it twice. Nothing escapes
    a worker body (an exception from the task or the [on_result]
    callback is captured into the task's outcome), so [Domain.join]
    never re-raises mid-iteration and one failing task cannot discard
    the rest of the matrix.

    Tasks must be self-contained (build their own [System.t]); nothing
    in the simulator engine is shared across domains. *)

type 'b outcome = {
  result : ('b, exn) result;
  backtrace : string option;
      (** captured when [result] is [Error]; recorded in every worker
          domain, so it does not depend on [jobs] *)
  wall_s : float;  (** wall time of the task *)
}

type 'b run = {
  outcomes : 'b outcome option array;
      (** input order; [None] = never started (pool stopped early) *)
  completed : int;
  stopped_early : bool;  (** [stop_after] cut the run short *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], capped at 8. *)

val map :
  ?jobs:int ->
  ?stop_after:int ->
  ?on_result:(index:int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b run
(** [map f tasks] applies [f] once to every task and returns outcomes in
    input order. [stop_after] stops claiming new tasks once that many
    outcomes are recorded (in-flight tasks still finish) — the campaign
    layer's row-limit / crash-simulation hook. [on_result] is invoked
    once per finished task under the pool's lock (safe to print from).
    Defaults: [jobs = default_jobs ()], no row limit. *)
