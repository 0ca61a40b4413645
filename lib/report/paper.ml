(* The paper's published numbers, as data: every table and figure of the
   evaluation section (§6). [Claims] reads them to judge the
   reproduction; the bench harness prints them beside its full-scale
   runs. *)

(* Table 1: cpuid breakdown in a nested VM (µs), a row per part in the
   order of [Breakdown.rows], which names them. *)
type table1_row = { time_us : float; percent : float }

let table1 =
  [
    { time_us = 0.05; percent = 0.47 } (* 0: L2 *);
    { time_us = 0.81; percent = 7.75 } (* 1: switch L2<->L0 *);
    { time_us = 1.29; percent = 12.45 } (* 2: transform vmcs02/vmcs12 *);
    { time_us = 4.89; percent = 47.02 } (* 3: L0 handler *);
    { time_us = 1.40; percent = 13.43 } (* 4: switch L0<->L1 *);
    { time_us = 1.96; percent = 18.87 } (* 5: L1 handler *);
  ]

let table1_total_us = 10.40

(* Figure 6: cpuid latency and speedups. *)
let fig6_sw_speedup = 1.23
let fig6_hw_speedup = 1.94

(* Figure 7: subsystem benchmarks — baseline absolute and speedups. *)
type fig7_row = {
  name : string;
  baseline : float;
  unit_ : string;
  higher_better : bool;
  sw_speedup : float;
  hw_speedup : float;
}

let fig7 =
  [
    { name = "net-latency"; baseline = 163.0; unit_ = "usec";
      higher_better = false; sw_speedup = 1.10; hw_speedup = 2.38 };
    { name = "net-bandwidth"; baseline = 9387.0; unit_ = "Mbps";
      higher_better = true; sw_speedup = 1.00; hw_speedup = 1.12 };
    { name = "disk-randrd-latency"; baseline = 126.0; unit_ = "usec";
      higher_better = false; sw_speedup = 1.30; hw_speedup = 2.18 };
    { name = "disk-randrd-bandwidth"; baseline = 87136.0; unit_ = "KB/s";
      higher_better = true; sw_speedup = 1.55; hw_speedup = 2.31 };
    { name = "disk-randwr-latency"; baseline = 179.0; unit_ = "usec";
      higher_better = false; sw_speedup = 1.05; hw_speedup = 2.26 };
    { name = "disk-randwr-bandwidth"; baseline = 55769.0; unit_ = "KB/s";
      higher_better = true; sw_speedup = 1.18; hw_speedup = 2.60 };
  ]

(* Figure 8: memcached/ETC. *)
let fig8_sla_us = 500.0
let fig8_p99_speedup = 2.20 (* capacity within SLA *)
let fig8_avg_speedup = 1.43

(* §6.3.1 profiling claims. *)
let fig8_ept_misconfig_share = (0.048, 0.193)
let fig8_msr_write_share = (0.005, 0.046)

(* Figure 9: TPC-C. *)
let fig9_svt_tpm = 6_370.0
let fig9_speedup = 1.18

(* Figure 10: video playback dropped frames, over 5 minutes of playback. *)
let fig10_playback_s = 300

type fig10_row = { fps : int; baseline_drops : int; svt_drops : int }

let fig10 =
  [
    { fps = 24; baseline_drops = 0; svt_drops = 0 };
    { fps = 60; baseline_drops = 3; svt_drops = 0 };
    { fps = 120; baseline_drops = 40; svt_drops = 26 };
  ]

(* §6.3.3: the L2 guest is idle 61% of the time at 120 FPS. *)
let fig10_idle_fraction = 0.61

(* Table 3: the SW SVt prototype's code-change inventory. *)
type table3_row = { codebase : string; added : int; removed : int }

let table3 =
  [
    { codebase = "QEMU"; added = 654; removed = 10 };
    { codebase = "Linux / KVM"; added = 2432; removed = 51 };
    { codebase = "Linux / other"; added = 227; removed = 2 };
  ]

(* Table 4: machine parameters. *)
let table4 =
  [
    ("L0", "2x Intel E5-2630v3 (2.4GHz, 8 cores, 2-SMT), 2x64GB RAM, Intel X540-AT2 (10Gb)");
    ("L1", "6 vCPUs (1 reserved), 50GB RAM, virtio-net-pci+vhost, virtio disk @ ramfs");
    ("L2", "3 vCPUs (1 reserved), 35GB RAM, virtio-net-pci+vhost, virtio disk @ ramfs");
  ]

(* ---- campaign-ledger consumption ----

   Measured-vs-paper speedups computed straight from a campaign run
   ledger. The published numbers are x86 and fault-free, so only such
   points count: each SVt run is paired with the baseline run whose
   point differs from it in mode alone, and the pair's speedup is set
   beside the published number above. Only pairs whose runs are both
   present (status ok) are emitted, so any sweep, however partial,
   yields exactly the comparisons it supports. *)

module Spec = Svt_campaign.Spec

(* (label, registry workload, headline metric, lower-is-better, paper SW
   speedup, paper HW speedup) for every registry workload the paper
   publishes nested speedups for. *)
let ledger_speedup_specs =
  let f7 name workload metric =
    let r = List.find (fun r -> r.name = name) fig7 in
    (name, workload, metric, not r.higher_better, r.sw_speedup, r.hw_speedup)
  in
  [
    ("cpuid latency", "cpuid", "per_op_us", true, fig6_sw_speedup, fig6_hw_speedup);
    f7 "net-latency" "rr" "mean_rtt_us";
    f7 "net-bandwidth" "stream" "mbps";
    f7 "disk-randrd-latency" "ioping" "mean_us";
    f7 "disk-randrd-bandwidth" "fio" "kb_per_sec";
  ]

let speedup_rows_of_ledger entries =
  let runs =
    List.filter_map
      (fun (e : Svt_campaign.Ledger.entry) ->
        if e.status = "ok" then Some (e.point, e.metrics) else None)
      entries
  in
  let value name point =
    match Option.bind (List.assoc_opt point runs) (List.assoc_opt name) with
    | Some v when Float.is_finite v -> Some v
    | _ -> None
  in
  List.concat_map
    (fun (label, workload, name, lower_better, paper_sw, paper_hw) ->
      List.concat_map
        (fun (mode, paper) ->
          List.filter_map
            (fun ((p : Spec.point), _) ->
              let twin = { p with mode = Svt_core.Mode.Baseline } in
              match (value name p, value name twin) with
              | Some v, Some base
                when p.arch = Svt_arch.Backend.X86 && p.fault = ""
                     && p.mode = mode && p.level = Svt_core.System.L2_nested
                     && p.workload = workload ->
                  Some
                    {
                      Compare.metric =
                        Printf.sprintf "%s %s speedup" label (Svt_core.Mode.to_string mode);
                      paper;
                      measured = (if lower_better then base /. v else v /. base);
                      unit_ = "x";
                    }
              | _ -> None)
            runs)
        [ (Svt_core.Mode.sw_svt_default, paper_sw); (Svt_core.Mode.Hw_svt, paper_hw) ])
    ledger_speedup_specs
