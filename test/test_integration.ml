(* End-to-end integration tests: one case per row of the paper's claims
   table (Svt_report.Claims), which pins the reproduction's headline
   shapes (who wins, roughly by how much) and the paper's side claims on
   shortened runs, plus whole-stack plumbing checks. The bench harness
   produces the full-scale numbers. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Netperf = Svt_workloads.Netperf
module Claims = Svt_report.Claims
module Microbench = Svt_workloads.Microbench

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sys ?(n_vcpus = 1) mode =
  System.of_config
    (System.Config.make ~mode ~level:System.L2_nested ~n_vcpus ())

(* --- the paper's claims ------------------------------------------------------ *)

(* One case per row of the claims table, named by its id. *)
let claim_case (c : Claims.t) =
  Alcotest.test_case c.id `Slow (fun () ->
      match Claims.check c with Ok () -> () | Error msg -> Alcotest.fail msg)

(* A Holds row's predicate accepts the paper's own value and a
   Known_deviation's rejects it, so a deviation is never a pass in
   disguise; ids are unique and every deviation gives its reason. *)
let test_claims_table () =
  let ids = List.map (fun (c : Claims.t) -> c.id) Claims.all in
  checki "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (c : Claims.t) ->
      checkb (c.id ^ ": status agrees with the paper value") (c.status = Holds)
        (Claims.accepts c.predicate c.paper);
      checkb (c.id ^ ": a deviation gives its reason") true
        (c.status <> Known_deviation ""))
    Claims.all

(* --- plumbing ------------------------------------------------------------------- *)

let test_multi_vcpu_isolated_breakdowns () =
  let s = sys ~n_vcpus:2 Mode.Baseline in
  let v0 = System.vcpu s 0 and v1 = System.vcpu s 1 in
  Svt_hyp.Vcpu.spawn_program v0 (fun v -> ignore (Svt_core.Guest.cpuid v ~leaf:1));
  System.run s;
  checkb "v0 charged" true
    (Svt_hyp.Breakdown.total (Svt_hyp.Vcpu.breakdown v0) > Time.zero);
  checki "v1 untouched" 0
    (Svt_hyp.Breakdown.total (Svt_hyp.Vcpu.breakdown v1))

(* Determinism across identical runs: the whole stack must be replayable. *)
let test_end_to_end_determinism () =
  let go () =
    let s = sys Mode.sw_svt_default in
    let r = Netperf.run_rr ~transactions:30 s in
    (r.Netperf.mean_rtt_us, r.Netperf.p99_rtt_us)
  in
  checkb "bit-identical reruns" true (go () = go ())

let () =
  (* one group per figure, in table order *)
  let figures =
    List.fold_left
      (fun acc (c : Claims.t) -> if List.mem c.figure acc then acc else acc @ [ c.figure ])
      [] Claims.all
  in
  let cases fig = List.filter (fun (c : Claims.t) -> c.figure = fig) Claims.all in
  Alcotest.run "integration"
    (("claims", [ Alcotest.test_case "table well-formed" `Quick test_claims_table ])
     :: List.map (fun fig -> (fig, List.map claim_case (cases fig))) figures
    @ [
        ( "plumbing",
          [
            Alcotest.test_case "multi-vcpu breakdown isolation" `Quick
              test_multi_vcpu_isolated_breakdowns;
            Alcotest.test_case "end-to-end determinism" `Slow
              test_end_to_end_determinism;
          ] );
      ])
