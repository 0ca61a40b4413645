(* Tests for the seeded fault injector (lib/fault) and its integration:
   plan grammar, PRNG-stream determinism, the typed channel backpressure
   path, graceful degradation under ring/vmcs12/IRQ faults, the empty-plan
   bit-identity guard, and the validated System.Config front door. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Plan = Svt_fault.Plan
module Kind = Svt_fault.Kind
module Outcome = Svt_fault.Outcome
module Injector = Svt_fault.Injector
module Mode = Svt_core.Mode
module System = Svt_core.System
module Nested = Svt_core.Nested
module Guest = Svt_core.Guest
module Wait = Svt_core.Wait
module Vcpu = Svt_hyp.Vcpu
module Spec = Svt_campaign.Spec
module Runner = Svt_campaign.Runner

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Plan grammar ----------------------------------------------------------- *)

let test_plan_parse_roundtrip () =
  let p = Plan.of_string_exn "corrupt-vmcs12:0.02,drop-ring:0.010" in
  (* canonical form: kind order, minimal rate spelling *)
  checks "canonical" "drop-ring:0.01,corrupt-vmcs12:0.02" (Plan.to_string p);
  let p2 = Plan.of_string_exn (Plan.to_string p) in
  checks "round-trips" (Plan.to_string p) (Plan.to_string p2);
  checkb "rate lookup" true (Plan.rate p Kind.Drop_ring = 0.01);
  checkb "unlisted kind is 0" true (Plan.rate p Kind.Drop_irq = 0.0)

let test_plan_empty_and_zero () =
  checkb "empty string" true (Plan.is_empty (Plan.of_string_exn ""));
  checkb "zero rates dropped" true
    (Plan.is_empty (Plan.of_string_exn "drop-ring:0"));
  checks "empty prints empty" "" (Plan.to_string Plan.empty)

let test_plan_errors () =
  let bad s =
    match Plan.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s)
  in
  bad "drop-ring";          (* missing rate *)
  bad "no-such-fault:0.1";  (* unknown kind *)
  bad "drop-ring:lots";     (* non-numeric rate *)
  bad "drop-ring:1.5";      (* out of [0,1] *)
  bad "drop-ring:-0.1";
  bad "drop-ring:nan";
  bad "drop-ring:0.1,drop-ring:0.2" (* duplicate kind *)

let test_plan_gen_roundtrip () =
  (* property: every plan the fuzzer's generator or mutator can produce
     is canonical, in-range, and survives the string grammar exactly *)
  let check_plan label p =
    let s = Plan.to_string p in
    let p2 = Plan.of_string_exn s in
    checks (label ^ " round-trips") s (Plan.to_string p2);
    checkb (label ^ " entries equal") true (Plan.entries p = Plan.entries p2);
    List.iter
      (fun (_, r) ->
        checkb (label ^ " rate in (0, 0.2]") true (r > 0.0 && r <= 0.2))
      (Plan.entries p);
    (* canonical: sorted by kind index, no duplicates *)
    let idx = List.map (fun (k, _) -> Kind.index k) (Plan.entries p) in
    checkb (label ^ " sorted, unique") true (List.sort_uniq compare idx = idx)
  in
  for i = 0 to 199 do
    let rng = Svt_engine.Prng.of_split 0xD1CEL ~index:i in
    let p = Plan.gen rng in
    check_plan (Printf.sprintf "gen %d" i) p;
    let m = ref p in
    for j = 0 to 9 do
      m := Plan.mutate rng !m;
      check_plan (Printf.sprintf "gen %d mutant %d" i j) !m
    done
  done

let test_plan_gen_deterministic () =
  for i = 0 to 19 do
    let a = Plan.gen (Svt_engine.Prng.of_split 5L ~index:i) in
    let b = Plan.gen (Svt_engine.Prng.of_split 5L ~index:i) in
    checks "same split stream, same plan" (Plan.to_string a) (Plan.to_string b)
  done

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Kind.of_name (Kind.name k) with
      | Some k' -> checkb (Kind.name k) true (k = k')
      | None -> Alcotest.fail ("name does not round-trip: " ^ Kind.name k))
    Kind.all

(* --- Injector determinism ---------------------------------------------------- *)

let roll_seq inj kind n = List.init n (fun _ -> Injector.roll inj kind)

let test_injector_deterministic () =
  let plan = Plan.of_string_exn "drop-ring:0.3,drop-irq:0.3" in
  let a = Injector.create ~seed:42L plan in
  let b = Injector.create ~seed:42L plan in
  checkb "same seed, same draws" true
    (roll_seq a Kind.Drop_ring 200 = roll_seq b Kind.Drop_ring 200);
  let c = Injector.create ~seed:43L plan in
  checkb "different seed, different draws" true
    (roll_seq a Kind.Drop_ring 200 <> roll_seq c Kind.Drop_ring 200)

let test_injector_streams_independent () =
  (* Drawing from one kind's stream must not perturb another's: the
     Drop_ring sequence is the same whether or not Drop_irq is rolled in
     between. *)
  let plan = Plan.of_string_exn "drop-ring:0.5,drop-irq:0.5" in
  let a = Injector.create ~seed:7L plan in
  let pure = roll_seq a Kind.Drop_ring 100 in
  let b = Injector.create ~seed:7L plan in
  let interleaved =
    List.init 100 (fun _ ->
        ignore (Injector.roll b Kind.Drop_irq);
        Injector.roll b Kind.Drop_ring)
  in
  checkb "streams independent" true (pure = interleaved)

let test_injector_inert () =
  let inj = Injector.none () in
  checkb "inert" false (Injector.is_active inj);
  checkb "never fires" false
    (List.exists Fun.id (roll_seq inj Kind.Drop_ring 50));
  checkb "no counts" true (Injector.counts inj = []);
  checkb "no fields" true (Injector.fields inj = [])

let test_injector_counts_and_fields () =
  let inj = Injector.create ~seed:1L (Plan.of_string_exn "drop-ring:1") in
  ignore (Injector.roll inj Kind.Drop_ring);
  ignore (Injector.roll inj Kind.Drop_ring);
  Injector.record inj Outcome.Downgrade;
  checki "injected counted" 2 (Injector.count inj (Outcome.Injected Kind.Drop_ring));
  checki "degradation counted" 1 (Injector.count inj Outcome.Downgrade);
  checkb "fields exported" true
    (Injector.fields inj = [ ("fault.injected.drop-ring", 2.0); ("fault.downgrade", 1.0) ])

(* --- Wait backoff schedules --------------------------------------------------- *)

let test_wait_kind_table () =
  List.iter
    (fun k ->
      checkb (Wait.Kind.to_string k) true
        (Wait.Kind.of_string (Wait.Kind.to_string k) = Some k))
    Wait.Kind.all;
  checkb "unknown name" true (Wait.Kind.of_string "bogus" = None)

let test_backoff_monotone_and_capped () =
  let ns f a = Time.to_ns (f ~attempt:a) in
  checkb "retry backoff grows" true
    (ns Wait.retry_backoff 0 < ns Wait.retry_backoff 3);
  checkb "retry backoff caps" true
    (ns Wait.retry_backoff 6 = ns Wait.retry_backoff 20);
  checkb "watchdog grows" true
    (ns Wait.watchdog_timeout 0 < ns Wait.watchdog_timeout 2);
  checkb "watchdog caps" true
    (ns Wait.watchdog_timeout 4 = ns Wait.watchdog_timeout 11)

(* --- End-to-end degradation -------------------------------------------------- *)

let exec_metrics ?(mode = "sw-svt") ?(workload = "cpuid") ?(seed = 0) plan =
  let p =
    Spec.point ~workload ~seed ~fault:(Plan.to_string (Plan.of_string_exn plan))
      (Result.get_ok (Mode.of_string mode))
  in
  Runner.exec p

let metric m k =
  match List.assoc_opt k m with Some v -> v | None -> 0.0

let test_e2e_certain_ring_drop_downgrades () =
  (* Every CMD_VM_TRAP is dropped: the SVt protocol cannot make progress,
     so the watchdog must retry, then downgrade the vCPU to baseline
     reflection — and the workload still completes. *)
  let m = exec_metrics ~workload:"cpuid" "drop-ring:1" in
  checkb "workload completed" true (metric m "per_op_us" > 0.0);
  checkb "watchdog retried" true (metric m "fault.resume-retry" >= 1.0);
  checkb "downgraded to baseline" true (metric m "fault.downgrade" >= 1.0)

let test_e2e_corrupt_vmcs12_reflected () =
  (* Every entry transform sees a corrupted vmcs12; each corruption must
     be reflected to L1 as a VM-entry failure and repaired, never abort
     the run. *)
  let m = exec_metrics ~mode:"baseline" ~workload:"cpuid" "corrupt-vmcs12:1" in
  checkb "workload completed" true (metric m "per_op_us" > 0.0);
  checkb "entries failed to L1" true
    (metric m "fault.entry-fail-reflected" >= 1.0);
  checkb "every injection reflected" true
    (metric m "fault.entry-fail-reflected"
     >= metric m "fault.injected.corrupt-vmcs12")

let test_e2e_ooh_delegation_fault_split () =
  (* Under OoH the same corruption splits by field ownership: the picker
     cycles a delegated field (GUEST_CR0) and two L0-owned ones (the link
     pointer and SVT_VISOR), so a certain-rate run must show BOTH the
     delegation-fault path (to L1, no L0) and the reflected entry-failure
     path — and still complete. *)
  let m = exec_metrics ~mode:"ooh" ~workload:"cpuid" "corrupt-vmcs12:1" in
  checkb "workload completed" true (metric m "per_op_us" > 0.0);
  checkb "delegated-field corruption is a delegation fault" true
    (metric m "fault.delegation-fault-reflected" >= 1.0);
  checkb "L0-owned-field corruption still entry-fails" true
    (metric m "fault.entry-fail-reflected" >= 1.0);
  checkb "every injection handled one way or the other" true
    (metric m "fault.delegation-fault-reflected"
     +. metric m "fault.entry-fail-reflected"
     >= metric m "fault.injected.corrupt-vmcs12");
  (* baseline never takes the delegation path *)
  let b = exec_metrics ~mode:"baseline" ~workload:"cpuid" "corrupt-vmcs12:1" in
  checkb "no delegation faults outside ooh" true
    (metric b "fault.delegation-fault-reflected" = 0.0)

let test_e2e_ring_faults_tolerated () =
  let m =
    exec_metrics ~workload:"rr" ~seed:3
      "dup-ring:0.05,corrupt-ring:0.05,delay-ring:0.05"
  in
  checkb "rr completed" true (metric m "transactions" = 120.0);
  checkb "some fault fired" true
    (metric m "fault.injected.dup-ring" +. metric m "fault.injected.corrupt-ring"
     +. metric m "fault.injected.delay-ring" > 0.0)

let test_e2e_irq_faults_recovered () =
  let m = exec_metrics ~workload:"rr" ~seed:1 "drop-irq:0.1,spurious-irq:0.1" in
  checkb "rr completed" true (metric m "transactions" = 120.0);
  checkb "irq faults fired" true
    (metric m "fault.injected.drop-irq" +. metric m "fault.injected.spurious-irq"
     > 0.0);
  checkb "dropped vectors recovered" true
    (metric m "fault.irq-recovered" = metric m "fault.injected.drop-irq")

(* --- Empty-plan guard --------------------------------------------------------- *)

(* Adding the fault layer must leave a fault-free run bit-identical: a
   default [Config.make] (empty plan, default fault seed) and one with an
   explicit empty plan under another fault seed must produce identical
   metrics, event counts and virtual end times. An empty plan is inert
   whatever the seed. *)
let cpuid_summary cfg =
  let sys = System.of_config cfg in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to 10 do
        ignore (Guest.cpuid v ~leaf:1)
      done);
  System.run sys;
  let sim = System.sim sys in
  ( Simulator.events_processed sim,
    Time.to_ns (Simulator.now sim),
    Svt_stats.Metrics.counter (System.metrics sys) "l2_exit.CPUID" )

let test_empty_plan_bit_identical () =
  List.iter
    (fun mode ->
      let default =
        cpuid_summary (System.Config.make ~mode ~level:System.L2_nested ())
      in
      let seeded =
        cpuid_summary
          (System.Config.make ~faults:Plan.empty ~fault_seed:99L ~mode
             ~level:System.L2_nested ())
      in
      checkb (Mode.name mode ^ ": identical summaries") true (default = seeded))
    [ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt; Mode.Ooh ]

let test_empty_plan_no_fault_artifacts () =
  let m = exec_metrics "" in
  checkb "no fault.* fields" true
    (not
       (List.exists
          (fun (k, _) ->
            String.length k > 6 && String.sub k 0 6 = "fault.")
          m));
  let p = Spec.point ~fault:"" Mode.Baseline in
  checkb "no fault= in canonical key" true
    (not
       (String.fold_left
          (fun (found, prev) c -> (found || (prev = 'f' && c = 'a'), c))
          (false, ' ')
          (Spec.canonical_key p)
       |> fst));
  checks "pre-fault-axis run_id preserved"
    (Spec.run_id { p with fault = "" })
    (Spec.run_id p)

(* --- Cross-worker determinism with the fault axis ----------------------------- *)

let test_jobs_determinism_with_faults () =
  let spec =
    Spec.cartesian
      ~modes:[ Mode.sw_svt_default; Mode.Baseline ]
      ~workloads:[ "cpuid" ]
      ~faults:[ ""; "drop-ring:0.2"; "corrupt-vmcs12:0.5" ]
      ()
  in
  let module Campaign = Svt_campaign.Campaign in
  let run jobs =
    let o = Campaign.execute ~jobs ~progress:false spec in
    List.map
      (fun (r : Runner.result) -> (r.Runner.run_id, r.Runner.metrics))
      o.Campaign.results
    |> List.sort compare
  in
  checkb "jobs=1 equals jobs=4" true (run 1 = run 4)

(* --- Config validation -------------------------------------------------------- *)

let smt1 = { Svt_hyp.Machine.paper_config with smt_per_core = 1 }

let test_config_rejects_unprogrammable_svt () =
  (* The bug class the issue names: an SVt mode on a machine whose cores
     have no SMT contexts to address — the µ-registers would stay
     unprogrammed and the guest would silently run without SVt. *)
  let cfg =
    System.Config.make ~machine:smt1 ~mode:Mode.Hw_svt ~level:System.L2_nested ()
  in
  match System.Config.validate cfg with
  | Ok _ -> Alcotest.fail "single-context HW SVt must be rejected"
  | Error es ->
      checkb "pinned error" true
        (List.exists
           (function
             | System.Config.Svt_context_unprogrammable { smt_per_core; _ } ->
                 smt_per_core = 1
             | _ -> false)
           es)

let test_config_rejects_sw_svt_without_sibling () =
  let cfg =
    System.Config.make ~machine:smt1 ~mode:Mode.sw_svt_default
      ~level:System.L2_nested ()
  in
  match System.Config.validate cfg with
  | Ok _ -> Alcotest.fail "SW SVt without an SMT sibling must be rejected"
  | Error es ->
      checkb "pinned error" true
        (List.exists
           (function
             | System.Config.Sw_svt_needs_smt_sibling _ -> true
             | _ -> false)
           es)

let test_config_rejects_bad_vcpus () =
  let cfg = System.Config.make ~n_vcpus:0 ~mode:Mode.Baseline ~level:System.L2_nested () in
  checkb "0 vcpus rejected" true (Result.is_error (System.Config.validate cfg));
  let cfg =
    System.Config.make ~n_vcpus:1000 ~mode:Mode.Baseline ~level:System.L2_nested ()
  in
  checkb "more vcpus than cores rejected" true
    (Result.is_error (System.Config.validate cfg))

let test_config_of_config_raises_typed () =
  let cfg =
    System.Config.make ~machine:smt1 ~mode:Mode.Hw_svt ~level:System.L2_nested ()
  in
  checkb "of_config raises Invalid_config" true
    (match System.of_config cfg with
    | exception System.Invalid_config (_ :: _) -> true
    | _ -> false)

let test_config_normalizes_third_context () =
  (* a default HW SVt nested machine is granted the proposal's third
     hardware context unless multiplex_contexts keeps the SMT width *)
  let cfg = System.Config.make ~mode:Mode.Hw_svt ~level:System.L2_nested () in
  (match System.Config.validate cfg with
  | Ok c -> checki "3 contexts" 3 c.System.Config.machine.Svt_hyp.Machine.smt_per_core
  | Error _ -> Alcotest.fail "default HW SVt config must validate");
  let cfg =
    System.Config.make ~multiplex_contexts:true ~mode:Mode.Hw_svt
      ~level:System.L2_nested ()
  in
  match System.Config.validate cfg with
  | Ok c -> checki "keeps 2 when multiplexing" 2
              c.System.Config.machine.Svt_hyp.Machine.smt_per_core
  | Error _ -> Alcotest.fail "multiplexed HW SVt config must validate"

let test_config_rejects_ooh_misuse () =
  (* delegation with nothing to delegate to: ooh at L0_native *)
  let cfg = System.Config.make ~mode:Mode.Ooh ~level:System.L0_native () in
  (match System.Config.validate cfg with
  | Ok _ -> Alcotest.fail "ooh at L0 must be rejected"
  | Error es ->
      checkb "pinned error" true
        (List.exists
           (function
             | System.Config.Ooh_needs_guest_level { level } ->
                 level = System.L0_native
             | _ -> false)
           es));
  (* ooh runs no SVt service thread: an explicit placement policy is a
     contradiction, not a silently ignored knob *)
  let cfg =
    System.Config.make ~svt_policy:Mode.On_demand_donation ~mode:Mode.Ooh
      ~level:System.L2_nested ()
  in
  (match System.Config.validate cfg with
  | Ok _ -> Alcotest.fail "ooh with an SVt placement policy must be rejected"
  | Error es ->
      checkb "pinned error" true
        (List.exists
           (function
             | System.Config.Ooh_has_no_svt_thread
                 { policy = Mode.On_demand_donation } ->
                 true
             | _ -> false)
           es));
  (* the mode needs no SMT sibling: a 1-thread-per-core machine is fine *)
  let cfg =
    System.Config.make ~machine:smt1 ~mode:Mode.Ooh ~level:System.L2_nested ()
  in
  checkb "ooh validates without SMT" true
    (Result.is_ok (System.Config.validate cfg))

let () =
  Alcotest.run "svt_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "parse and canonicalize" `Quick test_plan_parse_roundtrip;
          Alcotest.test_case "empty and zero rates" `Quick test_plan_empty_and_zero;
          Alcotest.test_case "rejects malformed plans" `Quick test_plan_errors;
          Alcotest.test_case "kind names round-trip" `Quick test_kind_names_roundtrip;
          Alcotest.test_case "generated plans round-trip" `Quick
            test_plan_gen_roundtrip;
          Alcotest.test_case "generator determinism" `Quick
            test_plan_gen_deterministic;
        ] );
      ( "injector",
        [
          Alcotest.test_case "seeded determinism" `Quick test_injector_deterministic;
          Alcotest.test_case "per-kind streams independent" `Quick
            test_injector_streams_independent;
          Alcotest.test_case "inert when plan empty" `Quick test_injector_inert;
          Alcotest.test_case "counts and ledger fields" `Quick
            test_injector_counts_and_fields;
        ] );
      ( "wait",
        [
          Alcotest.test_case "kind table round-trips" `Quick test_wait_kind_table;
          Alcotest.test_case "backoff schedules" `Quick test_backoff_monotone_and_capped;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "certain ring drop downgrades" `Quick
            test_e2e_certain_ring_drop_downgrades;
          Alcotest.test_case "corrupt vmcs12 reflected to L1" `Quick
            test_e2e_corrupt_vmcs12_reflected;
          Alcotest.test_case "ooh delegation-fault split" `Quick
            test_e2e_ooh_delegation_fault_split;
          Alcotest.test_case "ring faults tolerated" `Quick
            test_e2e_ring_faults_tolerated;
          Alcotest.test_case "irq faults recovered" `Quick
            test_e2e_irq_faults_recovered;
        ] );
      ( "guard",
        [
          Alcotest.test_case "empty plan bit-identical" `Quick
            test_empty_plan_bit_identical;
          Alcotest.test_case "no fault artifacts without a plan" `Quick
            test_empty_plan_no_fault_artifacts;
          Alcotest.test_case "jobs=1 vs jobs=4 with fault axis" `Quick
            test_jobs_determinism_with_faults;
        ] );
      ( "config",
        [
          Alcotest.test_case "rejects unprogrammable SVt" `Quick
            test_config_rejects_unprogrammable_svt;
          Alcotest.test_case "rejects SW SVt without sibling" `Quick
            test_config_rejects_sw_svt_without_sibling;
          Alcotest.test_case "rejects bad vcpu counts" `Quick
            test_config_rejects_bad_vcpus;
          Alcotest.test_case "of_config raises typed errors" `Quick
            test_config_of_config_raises_typed;
          Alcotest.test_case "normalizes third context" `Quick
            test_config_normalizes_third_context;
          Alcotest.test_case "rejects ooh misuse" `Quick
            test_config_rejects_ooh_misuse;
        ] );
    ]
