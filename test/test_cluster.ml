(* Tests for the fault-tolerant cluster layer (lib/cluster): plan
   grammar and the combined stack/cluster fault vocabulary, the pure
   admission rules (fits/pick/ladder/backoff), fleet conservation under
   seeded host crashes, quarantine, graceful placement degradation, and
   determinism — both two in-process fleets and campaign ledgers across
   jobs=1 / jobs=2 and an interrupt + resume cut. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module Policy = Svt_sched.Policy
module Host = Svt_sched.Host
module Plan = Svt_fault.Plan
module Cluster_kind = Svt_fault.Cluster_kind
module Cluster_plan = Svt_fault.Cluster_plan
module Admission = Svt_cluster.Admission
module Cluster = Svt_cluster.Cluster
module Spec = Svt_campaign.Spec
module Ledger = Svt_campaign.Ledger
module Campaign = Svt_campaign.Campaign

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- fault plan grammar -------------------------------------------------- *)

let test_plan_round_trip () =
  (match Cluster_plan.of_string "host-degrade:0.25,host-crash:0.5" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      (* canonical order is kind-index order, not input order *)
      checks "canonical order" "host-crash:0.5,host-degrade:0.25"
        (Cluster_plan.to_string p);
      Alcotest.(check (float 1e-9))
        "rate lookup" 0.5
        (Cluster_plan.rate p Cluster_kind.Host_crash);
      Alcotest.(check (float 1e-9))
        "absent kind" 0.0
        (Cluster_plan.rate p Cluster_kind.Host_flap));
  (* zero rates are dropped from the canonical form *)
  (match Cluster_plan.of_string "host-flap:0,host-crash:0.1" with
  | Error e -> Alcotest.fail e
  | Ok p -> checks "zeros dropped" "host-crash:0.1" (Cluster_plan.to_string p));
  checkb "empty string is empty plan" true
    (match Cluster_plan.of_string "" with
    | Ok p -> Cluster_plan.is_empty p
    | Error _ -> false);
  let bad s =
    match Cluster_plan.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "unknown kind rejected" true (bad "host-melt:0.1");
  checkb "stack kind rejected by pure parser" true (bad "drop-irq:0.1");
  checkb "rate > 1 rejected" true (bad "host-crash:1.5");
  checkb "negative rate rejected" true (bad "host-crash:-0.1");
  checkb "duplicate kind rejected" true (bad "host-crash:0.1,host-crash:0.2")

let test_split_combined () =
  (* A combined axis string mixing both vocabularies, in any order. *)
  (match Cluster_plan.split_of_string "host-crash:0.2,drop-irq:0.1" with
  | Error e -> Alcotest.fail e
  | Ok (stack, cluster) ->
      checkb "stack side non-empty" false (Plan.is_empty stack);
      checks "cluster side" "host-crash:0.2" (Cluster_plan.to_string cluster);
      (* canonical combined form: stack entries first *)
      let s = Cluster_plan.combined_to_string stack cluster in
      checks "combined canonical" (Plan.to_string stack ^ ",host-crash:0.2") s);
  (* A pure stack plan must keep its historical canonical form exactly,
     so pre-fleet run_ids survive the vocabulary merge. *)
  (match Plan.of_string "drop-irq:0.1" with
  | Error e -> Alcotest.fail e
  | Ok reference -> (
      match Cluster_plan.split_of_string "drop-irq:0.1" with
      | Error e -> Alcotest.fail e
      | Ok (stack, cluster) ->
          checkb "cluster side empty" true (Cluster_plan.is_empty cluster);
          checks "historical canonical preserved" (Plan.to_string reference)
            (Cluster_plan.combined_to_string stack cluster)));
  (match Cluster_plan.split_of_string "" with
  | Error e -> Alcotest.fail e
  | Ok (stack, cluster) ->
      checkb "empty splits empty" true
        (Plan.is_empty stack && Cluster_plan.is_empty cluster));
  checkb "unknown kind still rejected" true
    (match Cluster_plan.split_of_string "host-melt:0.1" with
    | Ok _ -> false
    | Error _ -> true)

(* --- pure admission rules ------------------------------------------------ *)

let view id committed capacity = { Admission.id; committed; capacity }

let test_admission_pick () =
  let c = Admission.default_config in
  (* overcommit 1.5 on an 8-thread host: committed may reach 12 *)
  checkb "fits under overcommit" true
    (Admission.fits c ~need:4 (view 0 8 8));
  checkb "over the overcommit line" false
    (Admission.fits c ~need:5 (view 0 8 8));
  let views = [ view 0 6 8; view 1 2 8; view 2 4 8 ] in
  (* bin-pack: first fit in scan order *)
  checki "bin-pack first fit"
    0
    (match Admission.pick c ~need:2 views with
    | Some id -> id
    | None -> Alcotest.fail "no host picked");
  (* spread: least committed wins *)
  let spread = { c with Admission.strategy = Admission.Spread } in
  checki "spread least committed"
    1
    (match Admission.pick spread ~need:2 views with
    | Some id -> id
    | None -> Alcotest.fail "no host picked");
  (* ties go to the lowest id *)
  checki "spread tie lowest id"
    0
    (match Admission.pick spread ~need:1 [ view 2 3 8; view 0 3 8 ] with
    | Some id -> id
    | None -> Alcotest.fail "no host picked");
  checkb "nothing fits" true
    (Admission.pick c ~need:32 views = None)

let test_backoff_epochs () =
  let b a = Admission.backoff_epochs ~attempt:a in
  checki "first retry next epoch" 1 (b 0);
  checki "doubles" 2 (b 1);
  checki "doubles again" 4 (b 2);
  for a = 0 to 30 do
    checkb "monotone" true (b (a + 1) >= b a);
    checkb "capped" true (b a <= Admission.backoff_epochs_max)
  done;
  checki "cap reached" Admission.backoff_epochs_max (b 30)

let test_ladder () =
  (* Sw_svt walks the full ladder down to baseline; fixed-footprint
     modes get no intermediate rungs. *)
  let sw =
    Admission.ladder ~mode:Mode.sw_svt_default ~policy:Policy.Dedicated_sibling
  in
  checki "sw-svt ladder length" 4 (List.length sw);
  (match sw with
  | (m0, p0) :: rest ->
      checkb "starts at current placement" true
        (m0 = Mode.sw_svt_default && p0 = Policy.Dedicated_sibling);
      checkb "ends at baseline" true
        (match List.rev rest with (Mode.Baseline, _) :: _ -> true | _ -> false)
  | [] -> Alcotest.fail "empty ladder");
  (* sticky: a tenant already downgraded to the shared pool never climbs
     back to the dedicated sibling *)
  let from_pool =
    Admission.ladder ~mode:Mode.sw_svt_default
      ~policy:(Policy.Shared_pool { threads = 2 })
  in
  checkb "no climb back" true
    (List.for_all (fun (_, p) -> p <> Policy.Dedicated_sibling) from_pool);
  checki "baseline ladder" 1
    (List.length (Admission.ladder ~mode:Mode.Baseline ~policy:Policy.default));
  checki "hw-svt falls straight to baseline" 2
    (List.length (Admission.ladder ~mode:Mode.Hw_svt ~policy:Policy.default))

(* --- fleet behaviour ----------------------------------------------------- *)

let submit_n cluster ~n ~mode ~policy =
  for i = 0 to n - 1 do
    ignore
      (Cluster.submit cluster
         (Host.tenant_spec
            ~name:(Printf.sprintf "t%d" i)
            ~policy ~seed:(1000 + i) mode))
  done

let state_accounted (r : Cluster.report) =
  (* every submitted tenant is in exactly one terminal bucket *)
  List.for_all
    (fun (tr : Cluster.tenant_row) ->
      tr.Cluster.tr_state = "queued"
      || tr.Cluster.tr_state = "quota"
      || tr.Cluster.tr_state = "retries"
      || tr.Cluster.tr_state = "config"
      || (String.length tr.Cluster.tr_state > 1 && tr.Cluster.tr_state.[0] = 'h'))
    r.Cluster.tenant_rows

(* A config the hosts cannot be built from is a typed [Error] naming the
   field, not an [Invalid_argument] out of [Host.create]. *)
let test_config_validation () =
  let d = Cluster.default_config in
  checkb "default config valid" true (Result.is_ok (Cluster.validate_config d));
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (field, cfg) ->
      match Cluster.validate_config cfg with
      | Ok _ -> Alcotest.fail (field ^ ": invalid config accepted")
      | Error e ->
          checkb (Printf.sprintf "%s named in %S" field e) true (contains e field))
    [
      ("n_hosts", { d with Cluster.n_hosts = 0 });
      ("sockets", { d with Cluster.sockets = 0 });
      ("cores_per_socket", { d with Cluster.cores_per_socket = -1 });
      ("smt_per_core", { d with Cluster.smt_per_core = 0 });
      ("sockets", { d with Cluster.sockets = -1; cores_per_socket = -4 });
      ("quantum", { d with Cluster.quantum = Time.zero });
      ("quantum", { d with Cluster.quantum = Time.of_ns (-50) });
    ]

(* The acceptance scenario: a seeded host-crash campaign in which every
   evacuated tenant is re-placed (or explicitly rejected with a typed
   reason) and no tenant is silently lost. *)
let test_conservation_under_crashes () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.plan =
          Cluster_plan.of_string_exn "host-crash:0.02,host-degrade:0.01";
        seed = 42L;
      }
  in
  submit_n cluster ~n:10 ~mode:Mode.sw_svt_default
    ~policy:Policy.Dedicated_sibling;
  Cluster.run cluster ~horizon:(Time.of_ms 20);
  let r = Cluster.report cluster in
  checkb "conserved" true r.Cluster.r_conserved;
  checki "all submitted" 10 r.Cluster.r_submitted;
  checki "placed + queued + rejected = submitted" 10
    (r.Cluster.r_placed + r.Cluster.r_queued + r.Cluster.r_rejected);
  checkb "crashes actually happened" true (r.Cluster.r_evictions > 0);
  checkb "evacuated tenants were re-admitted" true
    (r.Cluster.r_readmissions > 0);
  checkb "every tenant in a typed bucket" true (state_accounted r);
  (* crashed hosts came back: fleet self-heals *)
  checkb "revivals recorded" true
    (List.exists (fun h -> h.Cluster.hr_revivals > 0) r.Cluster.host_rows);
  checkb "forward progress despite faults" true
    (r.Cluster.r_aggregate_kops > 0.0)

let test_quarantine_and_flap () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.plan = Cluster_plan.of_string_exn "host-flap:0.08";
        seed = 42L;
      }
  in
  submit_n cluster ~n:10 ~mode:Mode.Baseline ~policy:Policy.default;
  Cluster.run cluster ~horizon:(Time.of_ms 20);
  let r = Cluster.report cluster in
  (* at this flap rate every host trips the 3-strikes-in-window rule *)
  checkb "hosts quarantined" true (r.Cluster.r_hosts_quarantined > 0);
  checkb "conserved even with the fleet gone" true r.Cluster.r_conserved;
  checki "no tenant lost" 10
    (r.Cluster.r_placed + r.Cluster.r_queued + r.Cluster.r_rejected);
  List.iter
    (fun (h : Cluster.host_row) ->
      if h.Cluster.hr_state = "quarantined" then
        checkb "quarantined host holds no tenants" true
          (h.Cluster.hr_tenants = 0))
    r.Cluster.host_rows

let test_quota_and_retries_exhausted () =
  (* quota: rejected at submit time, before any epoch runs *)
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.admission =
          { Admission.default_config with Admission.quota_vcpus = 2 };
      }
  in
  ignore (Cluster.submit cluster (Host.tenant_spec ~n_vcpus:4 Mode.Baseline));
  let r = Cluster.report cluster in
  checki "quota rejected immediately" 1 r.Cluster.r_rejected;
  (match r.Cluster.tenant_rows with
  | [ tr ] -> checks "typed quota token" "quota" tr.Cluster.tr_state
  | _ -> Alcotest.fail "expected one tenant row");
  (* retries: a 1-thread fleet can hold one baseline tenant; the second
     burns its capped backoff schedule (1+2+...+64+64+64 = 255 epochs of
     250 us over its 10 attempts) and lands in Retries_exhausted *)
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.n_hosts = 1;
        cores_per_socket = 1;
        smt_per_core = 1;
        admission = { Admission.default_config with Admission.overcommit = 1.0 };
      }
  in
  submit_n cluster ~n:2 ~mode:Mode.Baseline ~policy:Policy.default;
  Cluster.run cluster ~horizon:(Time.of_ms 70);
  let r = Cluster.report cluster in
  checkb "conserved" true r.Cluster.r_conserved;
  checki "one placed" 1 r.Cluster.r_placed;
  checki "one rejected" 1 r.Cluster.r_rejected;
  checkb "typed retries token" true
    (List.exists
       (fun tr -> tr.Cluster.tr_state = "retries")
       r.Cluster.tenant_rows)

let test_degradation_ladder_in_fleet () =
  (* One 2-thread host at overcommit 1.0 holding a baseline tenant: a
     dedicated-sibling Sw_svt tenant cannot claim a whole core, so the
     controller walks it down the ladder instead of rejecting it. *)
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.n_hosts = 1;
        cores_per_socket = 1;
        smt_per_core = 2;
        admission =
          { Admission.default_config with Admission.overcommit = 1.0 };
      }
  in
  ignore (Cluster.submit cluster (Host.tenant_spec ~name:"base" Mode.Baseline));
  ignore
    (Cluster.submit cluster
       (Host.tenant_spec ~name:"svt" ~policy:Policy.Dedicated_sibling
          Mode.sw_svt_default));
  Cluster.run cluster ~horizon:(Time.of_ms 5);
  let r = Cluster.report cluster in
  checkb "conserved" true r.Cluster.r_conserved;
  checki "both placed" 2 r.Cluster.r_placed;
  checkb "placement degraded, not rejected" true (r.Cluster.r_downgrades > 0);
  let svt =
    List.find (fun tr -> tr.Cluster.tr_name = "svt") r.Cluster.tenant_rows
  in
  checkb "svt tenant landed on the host" true (svt.Cluster.tr_state = "h0");
  checkb "sticky downgrade recorded" true (svt.Cluster.tr_downgrades > 0);
  checkb "not on the dedicated sibling anymore" true
    (svt.Cluster.tr_policy <> Policy.Dedicated_sibling
    || svt.Cluster.tr_mode = Mode.Baseline)

(* --- determinism --------------------------------------------------------- *)

let test_fleet_determinism () =
  let build () =
    let cluster =
      Cluster.create
        {
          Cluster.default_config with
          Cluster.plan =
            Cluster_plan.of_string_exn
              "host-crash:0.02,host-degrade:0.01,host-flap:0.01";
          seed = 7L;
        }
    in
    submit_n cluster ~n:8 ~mode:Mode.sw_svt_default
      ~policy:Policy.Dedicated_sibling;
    Cluster.run cluster ~horizon:(Time.of_ms 15);
    Cluster.fields (Cluster.report cluster)
  in
  let a = build () and b = build () in
  checkb "same config, same submissions, identical fields" true (a = b)

let temp_ledger () = Filename.temp_file "svt_cluster_ledger" ".jsonl"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let cluster_spec () =
  Spec.cartesian
    ~modes:[ Mode.Baseline; Mode.sw_svt_default ]
    ~workloads:[ "cluster" ] ~hosts:[ 2 ] ~tenants:[ 4 ]
    ~faults:[ "host-crash:0.05" ] ~seeds:[ 0; 1 ] ()

let test_campaign_jobs_determinism () =
  let spec = cluster_spec () in
  let p1 = temp_ledger () and p2 = temp_ledger () in
  let o1 =
    Campaign.execute ~jobs:1 ~deterministic:true ~ledger:p1 spec
  in
  let o2 =
    Campaign.execute ~jobs:2 ~deterministic:true ~ledger:p2 spec
  in
  checki "all ok (jobs=1)" (List.length spec) o1.Campaign.ok;
  checki "all ok (jobs=2)" (List.length spec) o2.Campaign.ok;
  checks "jobs=1 and jobs=2 ledgers byte-identical" (read_file p1)
    (read_file p2);
  Sys.remove p1;
  Sys.remove p2

let test_campaign_resume_cluster () =
  let spec = cluster_spec () in
  let whole = temp_ledger () and cut = temp_ledger () in
  ignore (Campaign.execute ~jobs:1 ~deterministic:true ~ledger:whole spec);
  (* simulate a crash after two rows, then resume to completion *)
  let o =
    Campaign.execute ~jobs:1 ~deterministic:true ~max_rows:2 ~ledger:cut spec
  in
  checkb "interrupted" true o.Campaign.interrupted;
  let o =
    Campaign.execute ~jobs:1 ~deterministic:true ~resume:true ~ledger:cut spec
  in
  checki "resume reused the salvaged rows" 2 o.Campaign.reused;
  checks "interrupt + resume matches the uninterrupted ledger"
    (read_file whole) (read_file cut);
  Sys.remove whole;
  Sys.remove cut

(* --- ledger schema v3 ---------------------------------------------------- *)

let test_ledger_hosts_field () =
  (* hosts only appears in the canonical key when off-default, so every
     pre-fleet run_id is unchanged *)
  let base = Spec.point Mode.Baseline in
  checkb "default hosts leaves the key alone" false
    (let k = Spec.canonical_key base in
     let rec has i =
       i + 6 <= String.length k && (String.sub k i 6 = "hosts=" || has (i + 1))
     in
     has 0);
  let fleet = Spec.point ~workload:"cluster" ~hosts:4 Mode.Baseline in
  let k = Spec.canonical_key fleet in
  checkb "fleet point keys the axis" true
    (String.length k >= 8 && String.sub k (String.length k - 8) 8 = ";hosts=4");
  (* round-trip: a fleet row keeps hosts through write -> parse *)
  let e =
    {
      Ledger.run_id = Spec.run_id fleet;
      point = fleet;
      status = "ok";
      error = None;
      wall_s = 0.0;
      metrics = [];
      data = [];
    }
  in
  (match Ledger.entry_of_line (Ledger.line ~crc:true e) with
  | Error msg -> Alcotest.fail msg
  | Ok e' -> checki "hosts survives round-trip" 4 e'.Ledger.point.Spec.hosts);
  (* legacy rows (schema v1/v2, no hosts field) still parse, hosts=1 *)
  let legacy =
    "{\"run_id\":\"x\",\"mode\":\"baseline\",\"level\":\"l2\",\
     \"workload\":\"cpuid\",\"vcpus\":1,\"seed\":0,\"status\":\"ok\",\
     \"attempts\":1,\"wall_s\":0,\"metrics\":{}}"
  in
  match Ledger.entry_of_line legacy with
  | Error msg -> Alcotest.fail msg
  | Ok e ->
      checki "legacy row defaults hosts" 1 e.Ledger.point.Spec.hosts;
      checki "legacy row defaults tenants" 1 e.Ledger.point.Spec.tenants

let () =
  Alcotest.run "cluster"
    [
      ( "plan",
        [
          Alcotest.test_case "round trip" `Quick test_plan_round_trip;
          Alcotest.test_case "combined split" `Quick test_split_combined;
        ] );
      ( "admission",
        [
          Alcotest.test_case "fits and pick" `Quick test_admission_pick;
          Alcotest.test_case "backoff epochs" `Quick test_backoff_epochs;
          Alcotest.test_case "degradation ladder" `Quick test_ladder;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "conservation under crashes" `Quick
            test_conservation_under_crashes;
          Alcotest.test_case "quarantine" `Quick test_quarantine_and_flap;
          Alcotest.test_case "quota and retries" `Quick
            test_quota_and_retries_exhausted;
          Alcotest.test_case "ladder in the fleet" `Quick
            test_degradation_ladder_in_fleet;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fleet fields" `Quick test_fleet_determinism;
          Alcotest.test_case "campaign jobs" `Quick
            test_campaign_jobs_determinism;
          Alcotest.test_case "campaign resume" `Quick
            test_campaign_resume_cluster;
        ] );
      ( "ledger",
        [ Alcotest.test_case "hosts field" `Quick test_ledger_hosts_field ] );
    ]
