(* A latency-critical service under SLA: the paper's memcached scenario
   (Figure 8) as an example of using the library for capacity planning.

       dune exec examples/memcached_sla.exe

   A real in-simulator key-value store serves Facebook's ETC mix from two
   vCPUs; an open-loop client sweeps the request load. We find the
   highest load each mode sustains with the 99th percentile under the
   500 us SLA. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module Etc = Svt_workloads.Etc_workload
module Paper = Svt_report.Paper

let loads = [ 5_000.; 10_000.; 15_000.; 20_000. ]

let () =
  Printf.printf
    "== memcached + ETC under a %.0f us p99 SLA (loads %s qps) ==\n\n"
    Paper.fig8_sla_us
    (String.concat ", " (List.map (fun l -> Printf.sprintf "%.0fk" (l /. 1000.)) loads));
  let capacities =
    List.map
      (fun mode ->
        Printf.printf "%s:\n" (Mode.name mode);
        let points = Etc.sweep ~loads ~duration:(Time.of_ms 60) ~mode () in
        List.iter
          (fun p ->
            Printf.printf
              "  offered %8.0f qps | achieved %8.0f | avg %7.1f us | p99 %7.1f us %s\n"
              p.Etc.offered_qps p.Etc.achieved_qps p.Etc.avg_us p.Etc.p99_us
              (if p.Etc.p99_us <= Paper.fig8_sla_us then "[within SLA]" else "[SLA violated]"))
          points;
        let cap = Etc.capacity_within_sla ~sla_us:Paper.fig8_sla_us points in
        Printf.printf "  -> capacity within SLA: %.0f qps\n\n" cap;
        (mode, cap))
      [ Mode.Baseline; Mode.sw_svt_default ]
  in
  match capacities with
  | [ (_, base); (_, svt) ] when base > 0.0 ->
      Printf.printf
        "SVt serves %.2fx the load within the same SLA (paper: %.2fx).\n"
        (svt /. base) Paper.fig8_p99_speedup
  | _ -> ()
