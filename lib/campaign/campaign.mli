(** The orchestrator: shard a {!Spec.t} across the {!Pool}, adapt each
    point with {!Runner.exec} (or an injected run function), stream a
    {!Progress} line, and journal every run's {!Ledger.entry} row
    crash-safely to a ledger. Rows come back in spec order regardless
    of how the pool interleaved them, so ledgers are reproducible files
    modulo wall-clock fields (or exactly, with [deterministic]).

    Crash safety: while the pool runs, completed rows are appended in
    completion order through {!Ledger.append} (CRC per line, flushed per
    row). On clean completion the file is atomically rewritten in
    canonical spec order ({!Ledger.rewrite}). A killed campaign leaves a
    salvageable journal that [execute ~resume:true] recovers: rows
    recorded [ok] are reused verbatim, everything else re-runs —
    content-addressed run_ids make the union identical to an
    uninterrupted campaign. *)

type outcome = {
  results : Ledger.entry list;
      (** in spec order; excludes skipped. [wall_s] is the host wall
          clock even under [deterministic], which pins only the written
          rows. *)
  ok : int;
  failed : int;
  timeout : int;  (** runs cut by the simulator's fuel budget *)
  skipped : int;  (** points never attempted (early stop) *)
  reused : int;  (** ok rows salvaged from a previous journal *)
  interrupted : bool;  (** stopped before every point ran ([max_rows]) *)
  wall_s : float;  (** whole-campaign wall clock *)
}

val exit_code : outcome -> int
(** Process exit status for CLI drivers: [0] every point ok, [1] some
    point failed or timed out, [3] interrupted before completing
    (resume to finish). *)

val execute :
  ?jobs:int ->
  ?max_rows:int ->
  ?resume:bool ->
  ?deterministic:bool ->
  ?progress:bool ->
  ?progress_label:string ->
  ?ledger:string ->
  ?run:(Spec.point -> (string * float) list) ->
  Spec.t ->
  outcome
(** Run every point once. Duplicated run_ids are executed once (the
    spec is {!Spec.dedup}ed first). Defaults: [jobs =
    Pool.default_jobs ()], no row limit, no resume, no progress line, no
    ledger, and [run = Runner.exec]. [jobs = 1] is the fully
    sequential, domain-free path.

    A run that raises becomes one [failed] row whose error is the
    exception followed by its backtrace; it is not retried, since a run
    is a pure function of its point.
    {!Svt_engine.Simulator.Budget_exhausted} becomes a [timeout] row
    carrying the fuel counters as metrics.

    [max_rows] stops the campaign after that many rows complete
    (outcome is [interrupted]; exit code 3) — the crash-simulation hook
    of test_campaign "resume re-runs timeout rows". [resume] reads the
    ledger back via {!Ledger.recover} before running and skips points
    whose latest row is [ok]. [deterministic] pins the per-row [wall_s]
    field to [0.0] so two ledgers of the same campaign are
    byte-identical. *)

val summary_table : outcome -> Svt_stats.Table.t
(** One row per run: run_id, point, status, headline metric, wall. *)
