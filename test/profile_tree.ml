(* The profiler's aggregate span tree on a few fixed points, printed row
   by row, for a diff against expected/profile-tree.expected.

   A fake clock that ticks 1 us and a fake word counter that ticks 1 on
   every read make each row's figures a count of profiler transition
   points, so the file pins the tree's shape (paths and calls) and
   where each segment is charged, independently of host speed. Rows
   are sorted by path, so the file does not depend on how the tree
   stores children. Exits 1 if the calls of the span rows do not add up
   to the spans the profiler received. *)

module Mode = Svt_core.Mode
module Simulator = Svt_engine.Simulator
module System = Svt_core.System
module Spec = Svt_campaign.Spec
module Runner = Svt_campaign.Runner
module Probe = Svt_obs.Probe
module Profiler = Svt_obs.Profiler

let mode s = match Mode.of_string s with Ok m -> m | Error e -> failwith e

let points =
  List.map
    (fun m -> Spec.point ~workload:"cpuid" ~seed:7 (mode m))
    [ "baseline"; "sw-svt"; "hw-svt"; "ooh" ]
  @ [
      Spec.point ~workload:"rr" ~seed:7
        ~fault:"drop-ring:0.05,corrupt-vmcs12:0.02,stall-blocked:0.1"
        Mode.sw_svt_default;
      Spec.point ~workload:"etc" ~vcpus:2 ~seed:7 Mode.sw_svt_default;
    ]

let profile (p : Spec.point) =
  let now = ref 0.0 and words = ref 0.0 in
  let clock () = now := !now +. 1e-6; !now in
  let count () = words := !words +. 1.0; !words in
  let prof = Profiler.create ~clock ~words:count () in
  let sys = Runner.make_system p in
  Probe.subscribe (System.probe sys) (Profiler.sink prof);
  Simulator.set_observer (System.sim sys) (Some (Profiler.observer prof));
  Profiler.start prof;
  ignore (Runner.workload_metrics p sys : (string * float) list);
  Profiler.stop prof;
  prof

let () =
  let ok = ref true in
  List.iter
    (fun (p : Spec.point) ->
      let prof = profile p in
      let rows =
        List.sort
          (fun a b -> compare a.Profiler.path b.Profiler.path)
          (Profiler.rows prof)
      in
      Printf.printf "== %s %s %s vcpus=%d fault=%s: %d spans\n" p.Spec.workload
        (Mode.to_string p.Spec.mode) (System.level_name p.Spec.level)
        p.Spec.vcpus
        (if p.Spec.fault = "" then "none" else p.Spec.fault)
        (Profiler.spans prof);
      List.iter
        (fun (r : Profiler.row) ->
          Printf.printf "%s calls=%d excl_ns=%.0f incl_ns=%.0f excl_bytes=%.0f\n"
            r.path r.calls r.excl_ns r.incl_ns r.excl_bytes)
        rows;
      let span_calls =
        List.fold_left
          (fun acc (r : Profiler.row) ->
            if String.starts_with ~prefix:"engine" r.path then acc
            else acc + r.calls)
          0 rows
      in
      if span_calls <> Profiler.spans prof then begin
        Printf.eprintf "%s: span rows hold %d calls, the profiler saw %d spans\n"
          p.Spec.workload span_calls (Profiler.spans prof);
        ok := false
      end)
    points;
  if not !ok then exit 1
