(* Tests for the multi-tenant consolidation scheduler (lib/sched):
   topology/thread mapping, policy claims, admission control, virtual-
   time determinism, and the paper's dedicated-sibling capacity
   trade-off (saturated Dedicated_sibling aggregate lands below plain
   SMT sharing; On_demand_donation recovers it at a wake-latency cost;
   per-exit latency keeps the fig6/fig7 ordering). *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module System = Svt_core.System
module Topology = Svt_sched.Topology
module Policy = Svt_sched.Policy
module Host = Svt_sched.Host
module Spec = Svt_campaign.Spec
module Ledger = Svt_campaign.Ledger
module Campaign = Svt_campaign.Campaign
module Open_loop = Svt_workloads.Open_loop

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Topology ------------------------------------------------------------ *)

let test_topology_thread_mapping () =
  let topo = Topology.create ~sockets:2 ~cores_per_socket:4 ~smt_per_core:2 () in
  checki "cores" 8 (Topology.n_cores topo);
  checki "threads" 16 (Topology.n_threads topo);
  (* core-major tids round-trip *)
  for core = 0 to 7 do
    for ctx = 0 to 1 do
      let tid = Topology.thread topo ~core ~ctx in
      checki "core of tid" core (Topology.core_of_thread topo tid);
      checki "ctx of tid" ctx (Topology.ctx_of_thread topo tid)
    done
  done;
  checki "tid layout" 9 (Topology.thread topo ~core:4 ~ctx:1);
  (* NUMA: cores 0-3 on socket 0, 4-7 on socket 1 *)
  checki "core 3 node" 0 (Topology.numa_node topo 3);
  checki "core 4 node" 1 (Topology.numa_node topo 4);
  checkb "same core -> sibling" true
    (Topology.placement topo ~core_a:2 ~core_b:2 = Mode.Smt_sibling);
  checkb "same socket -> same numa" true
    (Topology.placement topo ~core_a:0 ~core_b:3 = Mode.Same_numa_core);
  checkb "across sockets -> cross numa" true
    (Topology.placement topo ~core_a:1 ~core_b:5 = Mode.Cross_numa)

let test_topology_validation () =
  checkb "zero smt rejected" true
    (try
       ignore (Topology.create ~smt_per_core:0 ());
       false
     with Invalid_argument _ -> true)

(* --- Policy -------------------------------------------------------------- *)

let test_policy_parse_round_trip () =
  List.iter
    (fun p ->
      match Policy.of_string (Policy.name p) with
      | Ok p' -> checkb (Policy.name p) true (p = p')
      | Error e -> Alcotest.fail e)
    [ Policy.Dedicated_sibling;
      Policy.On_demand_donation;
      Policy.Shared_pool { threads = 3 } ];
  checkb "garbage rejected" true (Result.is_error (Policy.of_string "frobnicate"));
  (* the display label names the policy only where SW SVt places threads *)
  Alcotest.(check string) "sw-svt label" "sw-svt/shared-pool:2"
    (Policy.label Mode.sw_svt_default (Policy.Shared_pool { threads = 2 }));
  Alcotest.(check string) "hw-svt label" "hw-svt"
    (Policy.label Mode.Hw_svt Policy.On_demand_donation)

let test_policy_claims () =
  let c = Policy.claim ~mode:Mode.Baseline Policy.Dedicated_sibling in
  checkb "baseline: thread per vCPU, policy ignored" true
    (c.Policy.threads_per_vcpu = 1 && (not c.Policy.whole_core)
    && c.Policy.pool_threads = 0 && not c.Policy.donation);
  let c = Policy.claim ~mode:Mode.sw_svt_default Policy.Dedicated_sibling in
  checkb "sw-svt dedicated: whole core" true c.Policy.whole_core;
  checki "sw-svt dedicated gang on 2-way SMT" 8
    (Policy.gang_threads ~smt_per_core:2 ~n_vcpus:4 c);
  let c = Policy.claim ~mode:Mode.sw_svt_default (Policy.Shared_pool { threads = 2 }) in
  checkb "sw-svt pool: threads shared host-wide" true
    ((not c.Policy.whole_core) && c.Policy.pool_threads = 2);
  checki "pool gang excludes the pool" 4
    (Policy.gang_threads ~smt_per_core:2 ~n_vcpus:4 c);
  let c = Policy.claim ~mode:Mode.sw_svt_default Policy.On_demand_donation in
  checkb "sw-svt donation: sibling donated" true
    ((not c.Policy.whole_core) && c.Policy.donation);
  let c = Policy.claim ~mode:Mode.Hw_svt Policy.On_demand_donation in
  checkb "hw-svt always owns the core" true
    (c.Policy.whole_core && not c.Policy.donation)

let test_ooh_claims_no_service_thread () =
  (* OoH runs no SVt service thread: whatever the placement policy, its
     footprint is the baseline's — one thread per vCPU, no core claim,
     no pool, no donation. *)
  List.iter
    (fun policy ->
      let c = Policy.claim ~mode:Mode.Ooh policy in
      let b = Policy.claim ~mode:Mode.Baseline policy in
      checkb (Policy.name policy ^ ": ooh claim = baseline claim") true (c = b);
      checkb (Policy.name policy ^ ": single thread, nothing extra") true
        (c.Policy.threads_per_vcpu = 1 && (not c.Policy.whole_core)
        && c.Policy.pool_threads = 0 && not c.Policy.donation))
    [ Policy.Dedicated_sibling;
      Policy.On_demand_donation;
      Policy.Shared_pool { threads = 2 } ]

let test_ooh_admits_without_smt () =
  (* the same smt=1 host that rejects sw-svt/dedicated-sibling takes an
     ooh tenant: delegation needs no SMT sibling *)
  let topo = Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:1 () in
  let host = Host.create ~topology:topo () in
  (match
     Host.add_tenant host
       (Host.tenant_spec ~policy:Policy.Dedicated_sibling Mode.sw_svt_default)
   with
  | Ok () -> Alcotest.fail "dedicated sibling admitted on smt=1 host"
  | Error _ -> ());
  checkb "ooh tenant admitted on smt=1 host" true
    (Host.add_tenant host (Host.tenant_spec Mode.Ooh) = Ok ())

(* --- Admission ----------------------------------------------------------- *)

let has_err pred = List.exists pred

let test_admission_errors () =
  (* Dedicated sibling on a host without SMT *)
  let topo = Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:1 () in
  let host = Host.create ~topology:topo () in
  (match
     Host.add_tenant host
       (Host.tenant_spec ~policy:Policy.Dedicated_sibling Mode.sw_svt_default)
   with
  | Ok () -> Alcotest.fail "dedicated sibling admitted on smt=1 host"
  | Error errs ->
      checkb "needs-smt error" true
        (has_err
           (function
             | System.Config.Dedicated_sibling_needs_smt _ -> true | _ -> false)
           errs));
  (* more vCPUs than cores *)
  let topo = Topology.create ~sockets:1 ~cores_per_socket:2 ~smt_per_core:2 () in
  let host = Host.create ~topology:topo () in
  (match Host.add_tenant host (Host.tenant_spec ~n_vcpus:3 Mode.Baseline) with
  | Ok () -> Alcotest.fail "3 vCPUs admitted on 2 cores"
  | Error errs ->
      checkb "insufficient cores" true
        (has_err
           (function System.Config.Insufficient_cores _ -> true | _ -> false)
           errs));
  (* nonsense vCPU count *)
  (match Host.add_tenant host (Host.tenant_spec ~n_vcpus:0 Mode.Baseline) with
  | Ok () -> Alcotest.fail "0 vCPUs admitted"
  | Error errs ->
      checkb "invalid vcpus" true
        (has_err
           (function System.Config.Invalid_vcpus _ -> true | _ -> false)
           errs));
  (* a valid spec still fits afterwards *)
  checkb "valid tenant admitted" true
    (Host.add_tenant host (Host.tenant_spec ~n_vcpus:2 Mode.Baseline) = Ok ())

(* --- Consolidation runs -------------------------------------------------- *)

let saturated_host ?(tenants = 8) mode policy =
  let topo = Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:2 () in
  let host = Host.create ~topology:topo () in
  for i = 0 to tenants - 1 do
    match Host.add_tenant host (Host.tenant_spec ~policy ~seed:i mode) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail (Printf.sprintf "tenant %d rejected" i)
  done;
  Host.run host ~horizon:(Time.of_ms 10);
  Host.report host

let sum f (r : Host.report) =
  List.fold_left (fun a tr -> a +. f tr) 0.0 r.Host.tenant_reports

let test_dedicated_sibling_capacity_tax () =
  let base = saturated_host Mode.Baseline Policy.default in
  let dedicated = saturated_host Mode.sw_svt_default Policy.Dedicated_sibling in
  (* 8 runnable vCPUs on 4 cores: reserving every sibling halves the
     schedulable slots, so aggregate drops below plain SMT sharing
     despite the cheaper exits *)
  checkb "dedicated aggregate below baseline" true
    (dedicated.Host.aggregate_kops < 0.8 *. base.Host.aggregate_kops);
  checkb "losing tenants accrue steal" true
    (sum (fun tr -> tr.Host.steal_ms) dedicated > 0.0);
  checkb "baseline steals nothing at 8 threads" true
    (sum (fun tr -> tr.Host.steal_ms) base = 0.0)

let test_donation_recovers_throughput () =
  let dedicated = saturated_host Mode.sw_svt_default Policy.Dedicated_sibling in
  let donation = saturated_host Mode.sw_svt_default Policy.On_demand_donation in
  checkb "donation beats dedicated aggregate" true
    (donation.Host.aggregate_kops > dedicated.Host.aggregate_kops);
  checkb "donation pays wake latency" true
    (sum (fun tr -> tr.Host.wake_penalty_us) donation > 0.0);
  checkb "dedicated pays no wake latency" true
    (sum (fun tr -> tr.Host.wake_penalty_us) dedicated = 0.0)

let test_shared_pool_sits_between () =
  let dedicated = saturated_host Mode.sw_svt_default Policy.Dedicated_sibling in
  let donation = saturated_host Mode.sw_svt_default Policy.On_demand_donation in
  let pool =
    saturated_host Mode.sw_svt_default (Policy.Shared_pool { threads = 2 })
  in
  checkb "pool above dedicated" true
    (pool.Host.aggregate_kops > dedicated.Host.aggregate_kops);
  checkb "pool below donation" true
    (pool.Host.aggregate_kops < donation.Host.aggregate_kops)

let test_per_exit_ordering_matches_fig6 () =
  let mean_per_exit r =
    sum (fun tr -> tr.Host.per_exit_us) r
    /. float_of_int (List.length r.Host.tenant_reports)
  in
  let base = mean_per_exit (saturated_host ~tenants:4 Mode.Baseline Policy.default) in
  let sw =
    mean_per_exit
      (saturated_host ~tenants:4 Mode.sw_svt_default Policy.On_demand_donation)
  in
  let hw = mean_per_exit (saturated_host ~tenants:4 Mode.Hw_svt Policy.default) in
  (* consolidation must not distort the single-stack exit-cost story *)
  checkb "baseline slowest per exit" true (base > sw);
  checkb "hw-svt fastest per exit" true (sw > hw)

let test_deterministic_replay () =
  let a = saturated_host Mode.sw_svt_default Policy.On_demand_donation in
  let b = saturated_host Mode.sw_svt_default Policy.On_demand_donation in
  let fa = Host.fields a and fb = Host.fields b in
  checki "same field count" (List.length fa) (List.length fb);
  List.iter2
    (fun (ka, va) (kb, vb) ->
      checks "field name" ka kb;
      checkb (Printf.sprintf "field %s identical" ka) true (va = vb))
    fa fb

(* --- Tenant churn & host degradation ------------------------------------- *)

let tenant_names (r : Host.report) =
  List.map (fun tr -> tr.Host.tenant) r.Host.tenant_reports

let test_tenant_departure_and_readmission () =
  let topo = Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:2 () in
  let host = Host.create ~topology:topo () in
  for i = 0 to 2 do
    match Host.add_tenant host (Host.tenant_spec ~seed:i Mode.Baseline) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail (Printf.sprintf "tenant %d rejected" i)
  done;
  Host.run host ~horizon:(Time.of_ms 2);
  (* unknown departures are a typed error, not an exception *)
  (match Host.remove_tenant host ~name:"nobody" with
  | Ok _ -> Alcotest.fail "removed a tenant that was never admitted"
  | Error (Host.Unknown_tenant { name }) -> checks "unknown name" "nobody" name);
  checki "unknown departure changed nothing" 3 (Host.n_tenants host);
  (* a real departure returns the spec the cluster re-admits elsewhere *)
  (match Host.remove_tenant host ~name:"t1" with
  | Error e -> Alcotest.fail (Fmt.str "%a" Host.pp_churn_error e)
  | Ok spec ->
      checks "departing spec name" "t1" spec.Host.name;
      checki "departing spec seed" 1 spec.Host.seed);
  checki "two tenants remain" 2 (Host.n_tenants host);
  (* the run continues over the survivors *)
  Host.run host ~horizon:(Time.of_ms 4);
  checkb "survivors only in the report" true
    (tenant_names (Host.report host) = [ "t0"; "t2" ]);
  (* mid-run admission: the auto-name counter never rewinds, so the
     newcomer is t3, not a second t2 *)
  (match Host.add_tenant host (Host.tenant_spec ~seed:9 Mode.Baseline) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "mid-run admission rejected");
  Host.run host ~horizon:(Time.of_ms 6);
  checkb "newcomer gets a fresh name" true
    (tenant_names (Host.report host) = [ "t0"; "t2"; "t3" ])

let test_idle_host_run_advances_clock () =
  let topo = Topology.create ~sockets:1 ~cores_per_socket:2 ~smt_per_core:2 () in
  let host = Host.create ~topology:topo () in
  Host.run host ~horizon:(Time.of_ms 3);
  checkb "idle host clock at horizon" true (Host.now host = Time.of_ms 3);
  checki "idle host counts no rounds" 0 (Host.rounds host);
  (* a tenant admitted after the idle stretch starts at the true host
     now: no back-entitlement for time it was not present *)
  (match Host.add_tenant host (Host.tenant_spec Mode.Baseline) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "post-idle admission rejected");
  Host.run host ~horizon:(Time.of_ms 5);
  checkb "clock advanced past the idle stretch" true
    (Host.now host >= Time.of_ms 5);
  checkb "rounds only cover the scheduled stretch" true
    (Host.rounds host <= 41)

let test_throttle_inflates_quantum () =
  let run_throttled factor =
    let topo =
      Topology.create ~sockets:1 ~cores_per_socket:4 ~smt_per_core:2 ()
    in
    let host = Host.create ~topology:topo () in
    for i = 0 to 3 do
      match Host.add_tenant host (Host.tenant_spec ~seed:i Mode.Baseline) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "tenant rejected"
    done;
    Host.set_throttle host factor;
    Host.run host ~horizon:(Time.of_ms 10);
    Host.report host
  in
  let healthy = run_throttled 1.0 in
  let degraded = run_throttled 0.25 in
  (* the host clock ticks at full speed either way; tenants on the
     degraded host simulate far less within it *)
  checkb "same elapsed host time" true
    (healthy.Host.elapsed_ms = degraded.Host.elapsed_ms);
  checkb "degraded aggregate well below healthy" true
    (degraded.Host.aggregate_kops < 0.5 *. healthy.Host.aggregate_kops);
  List.iter
    (fun f ->
      checkb
        (Printf.sprintf "throttle %g rejected" f)
        true
        (let topo = Topology.create () in
         let host = Host.create ~topology:topo () in
         try
           Host.set_throttle host f;
           false
         with Invalid_argument _ -> true))
    [ 0.0; -1.0; 1.5; Float.nan ]

(* --- Campaign identity & ledger schema ----------------------------------- *)

let test_canonical_key_stability () =
  (* a pre-consolidation point must keep its pre-consolidation identity:
     none of the new axes may appear at their defaults *)
  let key = Spec.canonical_key (Spec.point ~workload:"cpuid" Mode.Baseline) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length key && (String.sub key i n = sub || go (i + 1))
    in
    go 0
  in
  checkb "no cores axis at default" false (contains "cores=");
  checkb "no tenants axis at default" false (contains "tenants=");
  checkb "no policy axis at default" false (contains "policy=");
  (* and non-default values must be identity-bearing *)
  let p = Spec.point ~cores:4 ~tenants:6 ~policy:"on-demand-donation" Mode.Baseline in
  checkb "consolidation points get fresh run_ids" true
    (Spec.run_hash p <> Spec.run_hash (Spec.point Mode.Baseline))

let test_ledger_schema_v2_round_trip () =
  let point =
    Spec.point ~workload:"consolidate" ~cores:4 ~smt:2 ~tenants:6
      ~policy:"shared-pool:2" Mode.sw_svt_default
  in
  let entry =
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status = "ok";
      error = None;
      attempts = 1;
      wall_s = 0.0;
      metrics = [ ("sched.aggregate_kops", 21.5) ];
      data = [];
    }
  in
  let path = Filename.temp_file "sched-ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ledger.write path [ entry ];
      match Ledger.load path with
      | Error e -> Alcotest.fail e
      | Ok [ e ] ->
          checki "cores" 4 e.Ledger.point.Spec.cores;
          checki "smt" 2 e.Ledger.point.Spec.smt;
          checki "tenants" 6 e.Ledger.point.Spec.tenants;
          checks "policy" "shared-pool:2" e.Ledger.point.Spec.policy;
          checks "run_id stable" entry.Ledger.run_id e.Ledger.run_id
      | Ok _ -> Alcotest.fail "expected one entry")

let test_ledger_legacy_rows_parse () =
  (* a pre-consolidation row (no cores/smt_per_core/tenants/policy keys)
     must load with the defaults that preserve its identity *)
  let line =
    {|{"run_id":"00000000deadbeef","mode":"baseline","level":"l2",|}
    ^ {|"workload":"cpuid","vcpus":1,"seed":0,"status":"ok","attempts":1,|}
    ^ {|"wall_s":0.01,"metrics":{"per_op_us":10.3}}|}
  in
  match Ledger.entry_of_line line with
  | Error e -> Alcotest.fail e
  | Ok e ->
      checki "default cores" 1 e.Ledger.point.Spec.cores;
      checki "default smt" 2 e.Ledger.point.Spec.smt;
      checki "default tenants" 1 e.Ledger.point.Spec.tenants;
      checks "default policy" "" e.Ledger.point.Spec.policy

(* Virtual-time scheduling, SVt-thread placement and debt charging may
   not depend on wall clock or worker interleaving: the consolidation
   sweep's ledger is byte-identical under one and two worker domains. *)
let test_consolidate_jobs_deterministic () =
  let spec =
    Spec.cartesian ~workloads:[ "consolidate" ]
      ~modes:[ Mode.Baseline; Mode.sw_svt_default ]
      ~policies:[ "dedicated-sibling"; "on-demand-donation"; "shared-pool:2" ]
      ~tenants:[ 2; 6 ] ~cores:[ 4 ] ()
  in
  let ledger jobs =
    let path = Filename.temp_file "sched-ledger" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let o = Campaign.execute ~jobs ~deterministic:true ~ledger:path spec in
        checki "all ok" (List.length spec) o.Campaign.ok;
        In_channel.with_open_bin path In_channel.input_all)
  in
  checks "jobs=1 and jobs=2 ledgers byte-identical" (ledger 1) (ledger 2)

let () =
  Alcotest.run "svt_sched"
    [
      ( "topology",
        [
          Alcotest.test_case "thread mapping" `Quick test_topology_thread_mapping;
          Alcotest.test_case "dimension validation" `Quick test_topology_validation;
        ] );
      ( "policy",
        [
          Alcotest.test_case "parse round trip" `Quick test_policy_parse_round_trip;
          Alcotest.test_case "claims" `Quick test_policy_claims;
          Alcotest.test_case "ooh claims no service thread" `Quick
            test_ooh_claims_no_service_thread;
        ] );
      ( "admission",
        [ Alcotest.test_case "typed errors" `Quick test_admission_errors;
          Alcotest.test_case "ooh admits without smt" `Quick
            test_ooh_admits_without_smt
        ] );
      ( "consolidation",
        [
          Alcotest.test_case "dedicated-sibling capacity tax" `Quick
            test_dedicated_sibling_capacity_tax;
          Alcotest.test_case "donation recovers throughput" `Quick
            test_donation_recovers_throughput;
          Alcotest.test_case "shared pool sits between" `Quick
            test_shared_pool_sits_between;
          Alcotest.test_case "per-exit ordering (fig6)" `Quick
            test_per_exit_ordering_matches_fig6;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "tenant departure and readmission" `Quick
            test_tenant_departure_and_readmission;
          Alcotest.test_case "idle host run advances clock" `Quick
            test_idle_host_run_advances_clock;
          Alcotest.test_case "throttle inflates the quantum" `Quick
            test_throttle_inflates_quantum;
        ] );
      ( "campaign-integration",
        [
          Alcotest.test_case "canonical key stability" `Quick
            test_canonical_key_stability;
          Alcotest.test_case "ledger schema v2 round trip" `Quick
            test_ledger_schema_v2_round_trip;
          Alcotest.test_case "legacy ledger rows parse" `Quick
            test_ledger_legacy_rows_parse;
          Alcotest.test_case "consolidate ledger jobs=1 = jobs=2" `Quick
            test_consolidate_jobs_deterministic;
        ] );
    ]
