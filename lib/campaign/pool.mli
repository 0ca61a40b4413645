(** Supervised domain-based worker pool for embarrassingly parallel run
    matrices.

    [jobs = 1] never spawns a domain: tasks run sequentially in the
    caller, which keeps tier-1 tests and reference ledgers fully
    deterministic. [jobs > 1] spawns that many worker domains pulling
    task indices from a shared atomic counter; each result slot is
    written by exactly one worker, so no locking is needed on results.

    Supervision: nothing escapes a worker body (an exception from the
    task or the [on_result] callback is captured into the task's
    outcome), so [Domain.join] never re-raises mid-iteration and a
    single worker crash cannot discard the rest of the matrix. Each
    worker keeps a heartbeat record ({!worker_stats}) exposed in the
    {!run} summary.

    Tasks must be self-contained (build their own [System.t]); nothing
    in the simulator engine is shared across domains. *)

type 'b outcome = {
  result : ('b, exn) result;
  quarantined : bool;
      (** the task failed [quarantine_after] consecutive times and was
          pulled from retry; [backtrace] has the last failure's trace *)
  backtrace : string option;  (** captured when [result] is [Error] *)
  attempts : int;  (** total attempts made, including the successful one *)
  wall_s : float;  (** wall time of the last attempt *)
}

(** Per-worker supervision record (heartbeats are host wall-clock). *)
type worker_stats = {
  id : int;
  mutable tasks_run : int;
  mutable last_beat : float;  (** last claim/finish heartbeat *)
  mutable current : int;  (** task index being run, [-1] when idle *)
  mutable crash : string option;
      (** set if the worker domain itself died (should not happen; the
          matrix is still completed by the surviving workers) *)
}

type 'b run = {
  outcomes : 'b outcome option array;
      (** input order; [None] = never started (pool stopped early) *)
  completed : int;
  stopped_early : bool;  (** [stop_after] cut the run short *)
  workers : worker_stats list;
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], capped at 8. *)

val default_quarantine_after : int
(** 3 consecutive failures. *)

val map :
  ?jobs:int ->
  ?retries:int ->
  ?quarantine_after:int ->
  ?stop_after:int ->
  ?fatal:(exn -> bool) ->
  ?on_result:(index:int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b run
(** [map f tasks] applies [f] to every task and returns outcomes in
    input order. [retries] (default 1) is the number of *additional*
    attempts after an exception; [fatal] exceptions (e.g. a
    deterministic {!Svt_engine.Simulator.Budget_exhausted}) are never
    retried, and [quarantine_after] (default
    {!default_quarantine_after}) consecutive failures stop retrying
    early and mark the outcome quarantined. [stop_after] stops claiming
    new tasks once that many outcomes are recorded (in-flight tasks
    still finish) — the campaign layer's row-limit / crash-simulation
    hook. [on_result] is invoked once per finished task under the
    pool's lock (safe to print from). Defaults: [jobs = default_jobs ()],
    no row limit, nothing fatal. *)
