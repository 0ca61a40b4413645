(* I/O latency walk-through: netperf-style round trips and ioping-style
   disk accesses against the nested guest, under all three modes — the
   scenario of the paper's Figure 7.

       dune exec examples/io_latency.exe

   Shows how to attach virtio devices to the guest under test and how the
   per-exit-reason metrics explain where the acceleration comes from. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Netperf = Svt_workloads.Netperf
module Disk = Svt_workloads.Disk
module Metrics = Svt_stats.Metrics

let modes = [ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt ]

let nested mode =
  System.of_config (System.Config.make ~mode ~level:System.L2_nested ())

let () =
  print_endline "== I/O latency under nested virtualization ==\n";
  (* network round trips *)
  print_endline "TCP_RR, 1-byte transactions (client on a separate machine):";
  let base_rtt = ref 0.0 in
  List.iter
    (fun mode ->
      let sys = nested mode in
      let r = Netperf.run_rr ~transactions:150 sys in
      if mode = Mode.Baseline then base_rtt := r.Netperf.mean_rtt_us;
      Printf.printf "  %-16s mean RTT %7.1f us   p99 %7.1f us   speedup %.2fx\n"
        (Mode.name mode) r.Netperf.mean_rtt_us r.Netperf.p99_rtt_us
        (!base_rtt /. r.Netperf.mean_rtt_us))
    modes;
  print_newline ();
  (* disk *)
  print_endline "ioping, 512-byte random reads (virtio disk on L1's ramfs):";
  let base_lat = ref 0.0 in
  List.iter
    (fun mode ->
      let sys = nested mode in
      let r = Disk.run_ioping ~ops:150 ~op:Disk.Randread sys in
      if mode = Mode.Baseline then base_lat := r.Disk.mean_us;
      Printf.printf "  %-16s mean %7.1f us   p99 %7.1f us   speedup %.2fx\n"
        (Mode.name mode) r.Disk.mean_us r.Disk.p99_us
        (!base_lat /. r.Disk.mean_us))
    modes;
  print_newline ();
  (* where the time goes: exit-reason profile of the baseline *)
  print_endline "Why: exit-reason profile of one baseline RR run:";
  let sys = nested Mode.Baseline in
  let _ = Netperf.run_rr ~transactions:150 sys in
  let m = System.metrics sys in
  List.iter
    (fun (k, v) ->
      if v > 0 && String.length k > 8 && String.sub k 0 8 = "l2_exit." then
        Printf.printf "  %-38s %6d exits  %10s total\n" k v
          (Time.to_string
             (Metrics.time m ("l2_exit_time." ^ String.sub k 8 (String.length k - 8)))))
    (Metrics.counters m);
  print_newline ();
  print_endline
    "Every line above is a VM exit class the guest hypervisor must handle\n\
     through the reflection protocol; SVt removes the context-switch cost\n\
     from each of them."
