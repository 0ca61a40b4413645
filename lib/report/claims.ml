(* The paper's evaluation claims as one table. Each row reads its
   published value from [Paper], measures the reproduction at claim
   scale and says how close is close enough. test_integration makes one
   test case per row; `svt_sim paper claims` prints the rows as a
   scorecard. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Metrics = Svt_stats.Metrics
module Disk = Svt_workloads.Disk
module Etc = Svt_workloads.Etc_workload

type predicate = Above of float | Below of float | Band of float * float
type status = Holds | Known_deviation of string

type t = {
  id : string;
  figure : string;
  paper : float;
  measured : float Lazy.t;
  predicate : predicate;
  status : status;
}

let accepts predicate v =
  match predicate with
  | Above lo -> v > lo
  | Below hi -> v < hi
  | Band (lo, hi) -> lo < v && v < hi

let predicate_to_string = function
  | Above lo -> Printf.sprintf "> %g" lo
  | Below hi -> Printf.sprintf "< %g" hi
  | Band (lo, hi) -> Printf.sprintf "(%g, %g)" lo hi

let num v = Printf.sprintf (if Float.abs v >= 100.0 then "%.0f" else "%.3f") v

let check c =
  let v = Lazy.force c.measured in
  if accepts c.predicate v then Ok ()
  else
    Error
      (Printf.sprintf "%s: measured %s, want %s (paper %s)" c.id (num v)
         (predicate_to_string c.predicate) (num c.paper))

(* ---- the runs: each made once, on first use, and shared by every row
   that reads it. Every [per_mode] call makes a fresh memo, so each run
   is bound once, at top level. ---- *)

let per_mode f =
  let memo = Hashtbl.create 3 in
  fun mode ->
    if not (Hashtbl.mem memo mode) then Hashtbl.add memo mode (f mode);
    Hashtbl.find memo mode

let sys ?(n_vcpus = 1) mode =
  System.of_config (System.Config.make ~mode ~level:System.L2_nested ~n_vcpus ())

let base = Mode.Baseline and sw = Mode.sw_svt_default and hw = Mode.Hw_svt

let cpuid =
  per_mode (fun m -> (Svt_workloads.Microbench.measure_cpuid (sys m)).per_op_us)

let rr =
  per_mode (fun m ->
      (Svt_workloads.Netperf.run_rr ~transactions:60 (sys m)).mean_rtt_us)

let stream =
  per_mode (fun m ->
      (Svt_workloads.Netperf.run_stream ~duration:(Time.of_ms 15) (sys m)).mbps)

let ioping ops op = per_mode (fun m -> (Disk.run_ioping ~ops ~op (sys m)).mean_us)
let fio op = per_mode (fun m -> (Disk.run_fio ~ops:150 ~op (sys m)).kb_per_sec)
let rd_lat = ioping 50 Disk.Randread
let rd_lat40 = ioping 40 Disk.Randread and wr_lat40 = ioping 40 Disk.Randwrite
let rd_bw = fio Disk.Randread and wr_bw = fio Disk.Randwrite

(* One 25 ms ETC load point on 2 vCPUs. Too few requests served makes
   its latencies meaningless, which fails every row that reads it. *)
let etc qps =
  per_mode (fun m ->
      let s = sys ~n_vcpus:2 m in
      let p = Etc.run_point ~duration:(Time.of_ms 25) ~qps s in
      if p.requests <= 200 then
        failwith (Printf.sprintf "fig8: %d requests served, want > 200" p.requests);
      (p, System.metrics s, Svt_engine.Simulator.now (System.sim s)))

let etc15 = etc 15_000.0 and etc20 = etc 20_000.0
let avg run m = let p, _, _ = run m in p.Etc.avg_us
let p99 run m = let p, _, _ = run m in p.Etc.p99_us
let exit_key reason = "l2_exit_time." ^ reason

let exit_us reason =
  let _, m, _ = etc15 base in
  Time.to_us_f (Metrics.time m (exit_key reason))

let exit_share reason =
  let _, m, whole = etc15 base in
  Metrics.time_share m (exit_key reason) ~whole

let tpcc =
  per_mode (fun m -> (Svt_workloads.Tpcc.run ~duration:(Time.of_ms 150) (sys m)).tpm)

let video_s = 60

let drops fps =
  per_mode (fun m ->
      float_of_int (Svt_workloads.Video.run ~seconds:video_s ~fps (sys m)).dropped)

let drops24 = drops 24 and drops120 = drops 120

let idle_fraction =
  lazy (Svt_workloads.Video.run ~seconds:30 ~fps:120 (sys base)).idle_fraction

(* ---- the table ---- *)

let row ?(status = Holds) figure id paper predicate measured =
  { id = figure ^ "." ^ id; figure; paper; measured; predicate; status }

let all =
  let fig7 name = List.find (fun (r : Paper.fig7_row) -> r.name = name) Paper.fig7 in
  let net_lat = fig7 "net-latency" and net_bw = fig7 "net-bandwidth" in
  let rd = fig7 "disk-randrd-latency" and wr = fig7 "disk-randwr-latency" in
  let rd_kb = fig7 "disk-randrd-bandwidth" and wr_kb = fig7 "disk-randwr-bandwidth" in
  let fig10 fps = List.find (fun (r : Paper.fig10_row) -> r.fps = fps) Paper.fig10 in
  (* the paper's drop counts, scaled to the length of the claim run *)
  let paper_drops n = float_of_int (n * video_s) /. float_of_int Paper.fig10_playback_s in
  let f120 = fig10 120 in
  let ept = Paper.fig8_ept_misconfig_share and msr = Paper.fig8_msr_write_share in
  let mid (lo, hi) = (lo +. hi) /. 2.0 in
  [
    (* The cost model is calibrated on Table 1 and Figure 6, so the cpuid
       speedups land on the paper's; the runs are deterministic, and a
       band of 5% either side catches a drift of that calibration. *)
    row "fig6" "cpuid.sw-speedup" Paper.fig6_sw_speedup (Band (1.17, 1.29))
      (lazy (cpuid base /. cpuid sw));
    row "fig6" "cpuid.hw-speedup" Paper.fig6_hw_speedup (Band (1.84, 2.04))
      (lazy (cpuid base /. cpuid hw));
    row "fig7" "rr.baseline-us" net_lat.baseline (Band (120.0, 185.0)) (lazy (rr base));
    row "fig7" "rr.sw-speedup" net_lat.sw_speedup (Above 1.0) (lazy (rr base /. rr sw));
    row "fig7" "rr.hw-over-sw" (net_lat.hw_speedup /. net_lat.sw_speedup) (Above 1.0)
      (lazy (rr sw /. rr hw));
    row "fig7" "rr.hw-speedup" net_lat.hw_speedup (Above 1.7) (lazy (rr base /. rr hw));
    row "fig7" "stream.baseline-mbps" net_bw.baseline (Band (8_800.0, 9_500.0))
      (lazy (stream base));
    row "fig7" "stream.sw-speedup" net_bw.sw_speedup (Band (0.95, 1.05))
      (lazy (stream sw /. stream base));
    row "fig7" "randrd.baseline-us" rd.baseline (Band (100.0, 140.0)) (lazy (rd_lat base));
    row "fig7" "randrd.hw-speedup" rd.hw_speedup (Band (1.8, 2.6))
      (lazy (rd_lat base /. rd_lat hw));
    row "fig7" "randwr-over-randrd" (wr.baseline /. rd.baseline) (Above 1.3)
      (lazy (wr_lat40 base /. rd_lat40 base));
    row "fig7" "randrd-bw.baseline-kbps" rd_kb.baseline (Band (70_000.0, 110_000.0))
      (lazy (rd_bw base));
    row "fig7" "randrd-bw.sw-speedup" rd_kb.sw_speedup (Band (0.95, 1.15))
      (lazy (rd_bw sw /. rd_bw base))
      ~status:
        (Known_deviation
           "SW SVt's saving per trap is pinned by the Figure 6 calibration \
            (1.23x on cpuid); the paper's SW disk gain exceeds its own cpuid \
            gain, which per-trap arithmetic cannot produce");
    row "fig7" "randrd-bw.hw-speedup" rd_kb.hw_speedup (Above 1.5)
      (lazy (rd_bw hw /. rd_bw base));
    row "fig7" "randwr-bw.hw-speedup" wr_kb.hw_speedup (Band (1.5, 2.0))
      (lazy (wr_bw hw /. wr_bw base))
      ~status:
        (Known_deviation
           "the mode-independent flush and journal service time bounds the \
            gain; the paper's HW numbers are an analytic scaling of SW runs \
            that removes more of it");
    row "fig8" "etc.avg-speedup" Paper.fig8_avg_speedup (Above 1.0)
      (lazy (avg etc15 base /. avg etc15 sw));
    row "fig8" "etc.p99-speedup" Paper.fig8_p99_speedup (Above 1.0)
      (lazy (p99 etc15 base /. p99 etc15 sw));
    row "fig8" "etc.avg-speedup-at-peak" Paper.fig8_avg_speedup (Band (1.6, 2.3))
      (lazy (avg etc20 base /. avg etc20 sw))
      ~status:
        (Known_deviation
           "at 20k qps the model's baseline is far past its knee (p99 above \
            the SLA), and queueing multiplies SVt's per-request trap saving");
    row "fig8" "etc.msr-write-share" (mid msr) (Above 0.0)
      (lazy (exit_share "MSR_WRITE"));
    row "fig8" "etc.ept-over-msr" (mid ept /. mid msr) (Above 1.0)
      (lazy (exit_us "EPT_MISCONFIG" /. exit_us "MSR_WRITE"));
    row "fig8" "etc.ept-misconfig-share" (mid ept) (Band (fst ept, snd ept))
      (lazy (exit_share "EPT_MISCONFIG"));
    row "fig9" "tpcc.baseline-tpm" (Paper.fig9_svt_tpm /. Paper.fig9_speedup)
      (Band (4_500.0, 8_500.0)) (lazy (tpcc base));
    row "fig9" "tpcc.speedup" Paper.fig9_speedup (Band (1.05, 1.35))
      (lazy (tpcc sw /. tpcc base));
    row "fig10" "24fps.baseline-drops" (paper_drops (fig10 24).baseline_drops)
      (Below 1.0) (lazy (drops24 base));
    row "fig10" "120fps.baseline-drops" (paper_drops f120.baseline_drops) (Above 0.0)
      (lazy (drops120 base));
    row "fig10" "120fps.svt-over-baseline"
      (float_of_int f120.svt_drops /. float_of_int f120.baseline_drops) (Below 1.0)
      (lazy (drops120 sw /. drops120 base));
    row "fig10" "120fps.idle-fraction" Paper.fig10_idle_fraction (Band (0.5, 0.7))
      idle_fraction;
  ]

(* ---- the scorecard ---- *)

let print_scorecard claims =
  Svt_stats.Table.print_rows
    ~aligns:[ Svt_stats.Table.Left; Right; Right; Right; Left; Left ]
    [ "claim"; "measured"; "paper"; "error"; "check"; "verdict" ]
    (List.map
       (fun c ->
         let v = Lazy.force c.measured in
         [ c.id; num v; num c.paper;
           (if c.paper = 0.0 then "-"
            else Printf.sprintf "%+.1f%%" (100.0 *. (v -. c.paper) /. c.paper));
           predicate_to_string c.predicate;
           (match (accepts c.predicate v, c.status) with
           | false, _ -> "FAIL"
           | true, Holds -> "holds"
           | true, Known_deviation _ -> "known deviation") ])
       claims);
  print_endline "\nknown deviations:";
  List.iter
    (function
      | { id; status = Known_deviation why; _ } -> Printf.printf "  %s: %s\n" id why
      | { status = Holds; _ } -> ())
    claims
