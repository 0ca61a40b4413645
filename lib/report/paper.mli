(** The paper's published numbers, as data: every table and figure of
    the evaluation section (§6). {!Claims} reads them to judge the
    reproduction, and the bench harness prints them beside its
    full-scale runs. *)

(** {2 Table 1: cpuid breakdown in a nested VM} *)

(** One part of the breakdown. {!table1} has a row per part, in the
    order of [Svt_hyp.Breakdown.rows], which names them. *)
type table1_row = { time_us : float; percent : float }

val table1 : table1_row list
val table1_total_us : float

(** {2 Figure 6: cpuid speedups} *)

val fig6_sw_speedup : float
val fig6_hw_speedup : float

(** {2 Figure 7: subsystem benchmarks} *)

type fig7_row = {
  name : string;
  baseline : float;  (** absolute baseline, in [unit_] *)
  unit_ : string;
  higher_better : bool;
  sw_speedup : float;
  hw_speedup : float;
}

val fig7 : fig7_row list

(** {2 Figure 8: memcached/ETC} *)

val fig8_sla_us : float
(** The p99 latency SLA. *)

val fig8_p99_speedup : float
(** Capacity within the SLA, SVt over baseline. *)

val fig8_avg_speedup : float
(** Average latency at peak load, baseline over SVt. *)

val fig8_ept_misconfig_share : float * float
(** §6.3.1: the range of L0 time EPT_MISCONFIG exits take across loads. *)

val fig8_msr_write_share : float * float
(** §6.3.1: the same range for MSR_WRITE exits. *)

(** {2 Figure 9: TPC-C} *)

val fig9_svt_tpm : float
val fig9_speedup : float

(** {2 Figure 10: video playback} *)

val fig10_playback_s : int
(** The length of the playback the drop counts are over. *)

type fig10_row = { fps : int; baseline_drops : int; svt_drops : int }

val fig10 : fig10_row list

val fig10_idle_fraction : float
(** §6.3.3: the share of time L2 is idle at 120 FPS (baseline). *)

(** {2 Tables 3 and 4} *)

type table3_row = { codebase : string; added : int; removed : int }

val table3 : table3_row list
val table4 : (string * string) list

(** {2 Campaign ledgers} *)

val speedup_rows_of_ledger : Svt_campaign.Ledger.entry list -> Compare.row list
(** Measured-vs-paper speedup rows for every x86, fault-free L2 SVt run
    in the ledger whose baseline twin (the same point, baseline mode) is
    also present. *)
