(** Micro-benchmarks (paper §2.3 and §6.1): a loop containing the
    operation under scrutiny, repeated after 32 warm-up operations until
    the paper's convergence criterion holds (stddev ≤ 1 % of mean at 2σ,
    4σ outlier rejection). *)

type result = {
  per_op_us : float;
  stats : Svt_stats.Convergence.result;
  exits : int;
  breakdown : (string * Svt_engine.Time.t * float) list;
      (** per-episode Table-1 rows *)
}

val measure_cpuid : Svt_core.System.t -> result
(** The canonical instance: a cpuid in the guest under test. *)

(** One bar of Figure 6. *)
type fig6_row = { label : string; time_us : float; overhead_vs_l0 : float }

val fig6 : ?arch:Svt_arch.Backend.kind -> unit -> fig6_row list
(** Measure cpuid at L0/L1/L2 plus L2 under SW SVt, HW SVt, OoH and HW
    full nesting. [arch] selects the backend; a mode the backend cannot
    run (HW SVt on ARM NV/VHE) is dropped from the bar set. *)

(** {2 Per-exit latency table} *)

(** One row of the per-backend exit profile: the nested latency of one
    driveable exit reason under baseline and SVt. *)
type exit_row = {
  exit_label : string;  (** the backend's own spelling of the exit *)
  baseline_us : float;
  svt_us : float;
  speedup : float;
}

val per_exit_table : ?arch:Svt_arch.Backend.kind -> unit -> exit_row list
(** Nested (L2) per-exit latency under baseline vs SW SVt for cpuid, an
    MSR write, an I/O port write and vmcall, labelled with the backend's
    own exit spellings ({!Svt_arch.Backend.exit_name}). *)
