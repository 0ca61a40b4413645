(* Tests for the SVt core library: run modes, the wait-mechanism model,
   the SW SVt command channel (serialization through simulated memory),
   the SVt VMCS fields, the single-level path, and the nested protocol in
   all three modes — including the headline Figure 6 speedups and the
   SVT_BLOCKED deadlock-avoidance of §5.3. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Mode = Svt_core.Mode
module Wait = Svt_core.Wait
module Channel = Svt_core.Channel
module Svt_fields = Svt_core.Svt_fields
module Single_level = Svt_core.Single_level
module Nested = Svt_core.Nested
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Breakdown = Svt_hyp.Breakdown
module Exit = Svt_hyp.Exit
module Exit_reason = Svt_arch.Exit_reason
module Cost_model = Svt_arch.Cost_model

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let cm = Cost_model.paper_machine

let l2_stack ?arch ?shadow ?multiplex_contexts mode =
  System.of_config
    (System.Config.make ?arch ?shadow ?multiplex_contexts ~mode
       ~level:System.L2_nested ())

(* --- Mode / Wait ------------------------------------------------------------ *)

let test_mode_names () =
  Alcotest.(check string) "baseline" "baseline" (Mode.name Mode.Baseline);
  Alcotest.(check string) "sw" "sw-svt(mwait)" (Mode.name Mode.sw_svt_default);
  Alcotest.(check string) "hw" "hw-svt" (Mode.name Mode.Hw_svt);
  checkb "svt-ness" true (Mode.is_svt Mode.Hw_svt && not (Mode.is_svt Mode.Baseline))

let test_wait_ordering_small_workload () =
  (* §6.1: polling has the lowest response latency *)
  let lat w = Wait.response_latency cm ~wait:w ~placement:Mode.Smt_sibling in
  checkb "polling < mwait" true (lat Mode.Polling < lat Mode.Mwait);
  checkb "mwait < mutex" true (lat Mode.Mwait < lat Mode.Mutex)

let test_wait_numa_order_of_magnitude () =
  let lat p = Wait.response_latency cm ~wait:Mode.Polling ~placement:p in
  checkb "cross-NUMA ~10x" true
    (lat Mode.Cross_numa > 8 * lat Mode.Smt_sibling)

let test_wait_only_polling_steals () =
  checkb "polling steals" true (Wait.steals_cycles Mode.Polling);
  checkb "mwait does not" false (Wait.steals_cycles Mode.Mwait);
  checkb "mutex does not" false (Wait.steals_cycles Mode.Mutex)

(* The backoff curves are a shared contract: channel re-posts, the SW
   SVt stall watchdog AND cluster tenant re-admission all ride them.
   Property: monotone nondecreasing in the attempt number, hard-capped
   at the exported maxima (so no attempt count, however pathological,
   can stall a retrier unboundedly), and total on negative attempts. *)
let test_backoff_monotone_and_capped () =
  let curves =
    [
      ("retry_backoff", (fun a -> Wait.retry_backoff ~attempt:a),
       Wait.retry_backoff_max);
      ("watchdog_timeout", (fun a -> Wait.watchdog_timeout ~attempt:a),
       Wait.watchdog_timeout_max);
    ]
  in
  List.iter
    (fun (name, f, cap) ->
      checkb (name ^ " cap positive") true Time.(cap > Time.zero);
      (* negative attempts clamp to attempt 0 instead of shifting UB *)
      checkb (name ^ " total below zero") true
        (Time.equal (f (-5)) (f 0));
      let prev = ref (f 0) in
      for a = 0 to 128 do
        let v = f a in
        checkb (Printf.sprintf "%s monotone at %d" name a) true
          Time.(v >= !prev);
        checkb (Printf.sprintf "%s capped at %d" name a) true
          Time.(v <= cap);
        prev := v
      done;
      (* the ceiling is reached, and huge attempts sit exactly on it *)
      checkb (name ^ " reaches its cap") true (Time.equal (f 128) cap);
      checkb (name ^ " cap at max_int attempts") true
        (Time.equal (f max_int) cap))
    curves

(* --- Channel ------------------------------------------------------------------ *)

let make_channel () =
  let machine = Svt_hyp.Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  let ch =
    Channel.create ~machine ~aspace:(Svt_hyp.Vm.aspace vm) ~wait:Mode.Mwait
      ~placement:Mode.Smt_sibling
      ~core:(Svt_hyp.Machine.core machine 0)
      ()
  in
  (machine, ch)

(* Most channel tests post into a ring with known free space; a
   backpressure result there is a test bug, not a scenario. *)
let post_ok ch dir bd cmd =
  match Channel.post ch dir bd cmd with
  | Ok () -> ()
  | Error `Backpressure -> Alcotest.fail "unexpected ring backpressure"

let test_channel_payload_roundtrip () =
  let machine, ch = make_channel () in
  let bd = Breakdown.create () in
  let got = ref None in
  Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
      let regs = Array.init 16 (fun i -> Int64.of_int (1000 + i)) in
      post_ok ch (Channel.to_svt ch) bd
        (Channel.Vm_trap { seq = 1; reason = Exit_reason.Cpuid; qual = 7L; regs });
      got := Channel.try_recv ch (Channel.to_svt ch) bd);
  Simulator.run (Svt_hyp.Machine.sim machine);
  match !got with
  | Some (Channel.Vm_trap { seq; reason; qual; regs }) ->
      checki "seq survives memory" 1 seq;
      checkb "reason survives memory" true (reason = Exit_reason.Cpuid);
      checkb "qual" true (qual = 7L);
      checkb "regs payload" true (regs.(15) = 1015L)
  | _ -> Alcotest.fail "expected the trap command back"

let test_channel_blocking_recv () =
  let machine, ch = make_channel () in
  let bd = Breakdown.create () in
  let sim = Svt_hyp.Machine.sim machine in
  let got = ref None in
  Simulator.spawn sim ~name:"svt-thread" (fun () ->
      got := Some (Channel.recv ch (Channel.to_svt ch) bd ()));
  Simulator.spawn sim ~name:"l0" (fun () ->
      Proc.delay (Time.of_us 5);
      post_ok ch (Channel.to_svt ch) bd
        (Channel.Vm_resume { seq = 1; regs = [||] }));
  Simulator.run sim;
  checkb "received" true
    (match !got with Some (Channel.Vm_resume _) -> true | _ -> false);
  (* the waits and ring accesses were charged to the Channel bucket *)
  checkb "channel time charged" true
    (Breakdown.time bd Breakdown.Channel > Time.zero)

let test_channel_fifo_and_overflow () =
  let machine, ch = make_channel () in
  let bd = Breakdown.create () in
  let sim = Svt_hyp.Machine.sim machine in
  Simulator.spawn sim (fun () ->
      for i = 1 to 3 do
        post_ok ch (Channel.to_svt ch) bd
          (Channel.Vm_trap
             { seq = i; reason = Exit_reason.Cpuid; qual = Int64.of_int i;
               regs = [||] })
      done;
      for i = 1 to 3 do
        match Channel.try_recv ch (Channel.to_svt ch) bd with
        | Some (Channel.Vm_trap { qual; _ }) ->
            checkb "fifo" true (qual = Int64.of_int i)
        | _ -> Alcotest.fail "command expected"
      done);
  Simulator.run sim

(* --- SVt fields --------------------------------------------------------------- *)

let test_table2_inventory () =
  checki "8 rows" 8 (List.length Svt_fields.table2);
  let kinds = List.map (fun d -> d.Svt_fields.kind) Svt_fields.table2 in
  checki "3 vmcs fields" 3
    (List.length (List.filter (( = ) Svt_fields.Vmcs_field) kinds));
  checki "2 instructions" 2
    (List.length (List.filter (( = ) Svt_fields.Instruction) kinds))

let test_svt_fields_vmptrld_loads_uregs () =
  let vmcs = Svt_vmcs.Vmcs.create ~owner_level:0 ~subject_level:1 () in
  Svt_fields.set_contexts vmcs ~visor:0 ~vm:1 ~nested:Svt_fields.invalid;
  let core = Svt_arch.Smt_core.create ~id:0 ~n_contexts:2 () in
  Svt_fields.vmptrld core vmcs;
  Svt_arch.Smt_core.vm_resume core;
  checki "fetches from SVt_vm after resume" 1 (Svt_arch.Smt_core.current core)

(* --- Single level --------------------------------------------------------------- *)

let test_single_level_episode_costs () =
  let base = Single_level.episode_cost ~cost:cm ~mode:Mode.Baseline Exit_reason.Cpuid in
  let hw = Single_level.episode_cost ~cost:cm ~mode:Mode.Hw_svt Exit_reason.Cpuid in
  let sw = Single_level.episode_cost ~cost:cm ~mode:Mode.sw_svt_default Exit_reason.Cpuid in
  (* baseline single-level cpuid ~1.46us; HW SVt collapses the switch *)
  checkb "baseline magnitude" true (base > 1_300 && base < 1_700);
  checkb "hw much cheaper" true (hw * 2 < base);
  checki "sw unchanged at single level (§5.2)" base sw;
  (* userspace exits bounce through QEMU *)
  let io = Single_level.episode_cost ~cost:cm ~mode:Mode.Baseline Exit_reason.Io_instruction in
  checkb "userspace adds ~4us" true (io > 4_000)

(* --- Nested protocol -------------------------------------------------------------- *)

let run_cpuid_once mode =
  let sys = l2_stack mode in
  let vcpu = System.vcpu0 sys in
  let value = ref None in
  Vcpu.spawn_program vcpu (fun v ->
      (* warm up, then measure one episode *)
      ignore (Guest.cpuid v ~leaf:1);
      Breakdown.reset (Vcpu.breakdown v);
      let t0 = Proc.now () in
      value := Some (Guest.cpuid v ~leaf:1);
      ignore (Time.diff (Proc.now ()) t0));
  System.run sys;
  (sys, vcpu, !value)

let test_nested_cpuid_reply_correct () =
  List.iter
    (fun mode ->
      let _, _, value = run_cpuid_once mode in
      match value with
      | Some r ->
          (* L2's view must have the hypervisor bit and no VMX *)
          checkb
            (Mode.name mode ^ ": hypervisor bit visible")
            true
            (Int64.logand r.Svt_arch.Cpuid_db.ecx
               (Int64.shift_left 1L 31)
            <> 0L);
          checkb
            (Mode.name mode ^ ": vmx hidden from L2")
            true
            (Int64.logand r.Svt_arch.Cpuid_db.ecx (Int64.shift_left 1L 5) = 0L)
      | None -> Alcotest.fail "cpuid must complete")
    [ Mode.Baseline;
      Mode.sw_svt_default;
      Mode.Hw_svt;
      Mode.Hw_full_nesting;
      Mode.Ooh
    ]

let episode_us mode =
  let sys = l2_stack mode in
  let vcpu = System.vcpu0 sys in
  let out = ref 0.0 in
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to 8 do
        ignore (Guest.cpuid v ~leaf:1)
      done;
      let t0 = Proc.now () in
      for _ = 1 to 16 do
        ignore (Guest.cpuid v ~leaf:1)
      done;
      out := Time.to_us_f (Time.diff (Proc.now ()) t0) /. 16.0);
  System.run sys;
  !out

(* The headline regression: Table 1's total and Figure 6's speedups. *)
let test_nested_figure6_shape () =
  let base = episode_us Mode.Baseline in
  let sw = episode_us Mode.sw_svt_default in
  let hw = episode_us Mode.Hw_svt in
  checkb "baseline ~10.4us (Table 1)" true (Float.abs (base -. 10.40) < 0.55);
  let sw_speedup = base /. sw and hw_speedup = base /. hw in
  checkb "SW SVt ~1.23x" true (Float.abs (sw_speedup -. 1.23) < 0.08);
  checkb "HW SVt ~1.94x" true (Float.abs (hw_speedup -. 1.94) < 0.12)

let test_nested_table1_breakdown () =
  let sys = l2_stack Mode.Baseline in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to 4 do
        ignore (Guest.cpuid v ~leaf:1)
      done;
      Breakdown.reset (Vcpu.breakdown v);
      for _ = 1 to 8 do
        ignore (Guest.cpuid v ~leaf:1)
      done);
  System.run sys;
  let bd = Vcpu.breakdown vcpu in
  let per bucket = float_of_int (Breakdown.time bd bucket) /. 8.0 /. 1000.0 in
  let expect bucket paper =
    checkb
      (Printf.sprintf "%s ~ %.2fus" (Breakdown.bucket_name bucket) paper)
      true
      (Float.abs (per bucket -. paper) < 0.12 *. paper +. 0.06)
  in
  expect Breakdown.L2_guest 0.05;
  expect Breakdown.Switch_l2_l0 0.81;
  expect Breakdown.Transform 1.29;
  expect Breakdown.L0_handler 4.89;
  expect Breakdown.Switch_l0_l1 1.40;
  expect Breakdown.L1_handler 1.96

let test_nested_hw_uses_hardware_contexts () =
  let sys = l2_stack Mode.Hw_svt in
  let vcpu = System.vcpu0 sys in
  let core = Vcpu.core vcpu in
  Vcpu.spawn_program vcpu (fun v -> ignore (Guest.cpuid v ~leaf:1));
  System.run sys;
  (* trap/resume events flowed through the core's context switch logic *)
  checkb "thread switches happened" true (Svt_arch.Smt_core.switches core >= 4);
  checkb "guest context active at the end" true (Svt_arch.Smt_core.is_vm core)

let test_nested_sw_blocked_protocol () =
  (* An interrupt for L1 arriving while L0 waits on the SVt-thread must be
     serviced through the SVT_BLOCKED path instead of deadlocking (§5.3). *)
  let sys = l2_stack Mode.sw_svt_default in
  let vcpu = System.vcpu0 sys in
  let serviced = ref false in
  (* land the host event in the middle of an episode, while L0₀ blocks on
     the SVt-thread's CMD_VM_RESUME *)
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      let sim = Proc.sim () in
      ignore
        (Simulator.schedule sim ~after:(Time.of_us 3) (fun () ->
             Vcpu.enqueue_host_event v ~vector:0x31 (fun () -> serviced := true)));
      ignore (Guest.cpuid v ~leaf:1));
  System.run sys;
  checkb "event serviced" true !serviced;
  checki "via SVT_BLOCKED injection" 1
    (Nested.blocked_injections (System.nested_path sys 0))

(* The full §5.3 scenario: a kernel thread on another L1 vCPU performs a
   TLB shootdown — an IPI to L1₀ followed by a synchronous wait for the
   acknowledgement — while L1₀'s hardware thread is blocked waiting for
   the SVt-thread. Without SVT_BLOCKED this deadlocks; with it, the IPI
   is serviced mid-episode and the shootdown completes. *)
let test_nested_sw_tlb_shootdown_progress () =
  let sys = l2_stack Mode.sw_svt_default in
  let vcpu = System.vcpu0 sys in
  let sim = System.sim sys in
  let acked = Simulator.Ivar.create sim in
  let ipi = Svt_interrupt.Ipi.create sim ~cost:(Time.of_ns 700) in
  let shootdown_done_at = ref Time.zero in
  (* the L1 kernel thread on another vCPU *)
  let l1_kernel_lapic = Svt_interrupt.Lapic.create sim ~id:42 in
  Svt_interrupt.Lapic.set_on_pending l1_kernel_lapic (fun _ ->
      (* the IPI physically lands on the pCPU running L2: a host event *)
      Vcpu.enqueue_host_event vcpu ~vector:0xFD (fun () ->
          Simulator.Ivar.fill acked ()));
  Simulator.spawn sim ~name:"l1-kernel-thread" (fun () ->
      Proc.delay (Time.of_us 3);
      (* lands while L0 waits for CMD_VM_RESUME of the cpuid episode *)
      Svt_interrupt.Ipi.send_and_wait ipi ~dest:l1_kernel_lapic ~vector:0xFD
        ~acked;
      shootdown_done_at := Proc.now ());
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      ignore (Guest.cpuid v ~leaf:1);
      ignore (Guest.cpuid v ~leaf:1));
  System.run sys;
  checkb "shootdown completed (no deadlock)" true
    Time.(!shootdown_done_at > Time.zero);
  checkb "completed promptly, inside the run" true
    Time.(!shootdown_done_at < Time.of_us 50);
  checkb "went through SVT_BLOCKED" true
    (Nested.blocked_injections (System.nested_path sys 0) >= 1)

(* Failure injection: a malicious/buggy L1 plants a dangling pointer in
   vmcs01'. The entry transform must refuse it — it cannot reach
   hardware — but the refusal surfaces to L1 as a failed VM entry (§2.1)
   rather than tearing the host down. *)
let test_nested_malicious_l1_pointer_reflected () =
  let sys = l2_stack Mode.Baseline in
  let vcpu = System.vcpu0 sys in
  let n = System.nested_path sys 0 in
  let completed = ref false in
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      (* L1 writes a pointer to an address its EPT does not map *)
      Svt_vmcs.Vmcs.write (Nested.vmcs12 n) Svt_vmcs.Field.Msr_bitmap
        0x7F_FFFF_F000L;
      ignore (Guest.cpuid v ~leaf:1);
      completed := true);
  System.run sys;
  checkb "episode completes despite the bad pointer" true !completed;
  checkb "L1 saw a reflected VM-entry failure" true
    (Svt_stats.Metrics.counter (System.metrics sys) "vmentry_fail_reflected"
     >= 1)

let test_nested_shadowing_off_costs_more () =
  let measure shadow =
    let sys = l2_stack ~shadow Mode.Baseline in
    let vcpu = System.vcpu0 sys in
    let out = ref Time.zero in
    Vcpu.spawn_program vcpu (fun v ->
        ignore (Guest.cpuid v ~leaf:1);
        let t0 = Proc.now () in
        ignore (Guest.cpuid v ~leaf:1);
        out := Time.diff (Proc.now ()) t0);
    System.run sys;
    !out
  in
  let on = measure Svt_vmcs.Shadow.hardware_shadowing_enabled in
  let off = measure Svt_vmcs.Shadow.no_shadowing in
  (* §2.1: without shadowing every vmcs01' access traps *)
  checkb "unshadowed accesses add aux exits" true
    (Time.to_ns off - Time.to_ns on > 5_000)

(* §3.1: a 2-context core must multiplex L1 and L2 on one context; HW
   SVt still wins over the baseline but pays the shared-context reload. *)
let test_hw_svt_multiplexed_contexts () =
  let t multiplex_contexts =
    let sys = l2_stack ~multiplex_contexts Mode.Hw_svt in
    let vcpu = System.vcpu0 sys in
    let out = ref 0.0 in
    Vcpu.spawn_program vcpu (fun v ->
        ignore (Guest.cpuid v ~leaf:1);
        let t0 = Proc.now () in
        for _ = 1 to 8 do
          ignore (Guest.cpuid v ~leaf:1)
        done;
        out := Time.to_us_f (Time.diff (Proc.now ()) t0) /. 8.0);
    System.run sys;
    !out
  in
  (* the default HW SVt system gets the proposal's third context *)
  let three = t false in
  let two = t true in
  checkb "multiplexing costs extra" true (two > three +. 0.15);
  checkb "still well below baseline" true (two < 8.0)

let test_full_nesting_upper_bound () =
  let t mode = episode_us mode in
  let full = t Mode.Hw_full_nesting in
  let hw = t Mode.Hw_svt in
  let base = t Mode.Baseline in
  checkb "full nesting beats HW SVt" true (full < hw);
  checkb "but is still virtualized (slower than ~1us)" true (full > 1.0);
  checkb "ordering: full < hw < base" true (full < hw && hw < base)

(* Out-of-Hypervisor delegation (§3): a delegated exit lands directly in
   L1 — no reflection, no transform — so it prices between the
   full-nesting upper bound (which also skips the transform but needs no
   per-exit dispatch) and HW SVt (which still round-trips through L0's
   transform engine). *)
let test_ooh_delegation_position () =
  let ooh = episode_us Mode.Ooh in
  let full = episode_us Mode.Hw_full_nesting in
  let hw = episode_us Mode.Hw_svt in
  checkb "ordering: full < ooh < hw" true (full < ooh && ooh < hw);
  checkb "ooh cpuid episode ~2.4us" true (Float.abs (ooh -. 2.40) < 0.30)

let test_ooh_delegated_residual_split () =
  (* cpuid is in the delegated set: every exit of a pure-cpuid run must
     take the direct path, none the residual one *)
  let sys = l2_stack Mode.Ooh in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to 4 do
        ignore (Guest.cpuid v ~leaf:1)
      done);
  System.run sys;
  let m = System.metrics sys in
  checki "all cpuid exits delegated" 4
    (Svt_stats.Metrics.counter m "ooh_delegated_exits");
  checki "no residual exits" 0
    (Svt_stats.Metrics.counter m "ooh_residual_exits");
  (* an external interrupt for L1 is residual: it reflects through L0 and
     pays the delegation re-arm on top of the baseline episode *)
  let sys = l2_stack Mode.Ooh in
  let vcpu = System.vcpu0 sys in
  let serviced = ref false in
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      let sim = Proc.sim () in
      ignore
        (Simulator.schedule sim ~after:(Time.of_us 1) (fun () ->
             Vcpu.enqueue_host_event v ~vector:0x31 (fun () -> serviced := true)));
      (* a compute span covering the event's arrival: the drain point *)
      Guest.compute_us v 10.0;
      ignore (Guest.cpuid v ~leaf:1));
  System.run sys;
  let m = System.metrics sys in
  checkb "interrupt serviced" true !serviced;
  checkb "interrupt took the residual path" true
    (Svt_stats.Metrics.counter m "ooh_residual_exits" >= 1)

let test_nested_exit_metrics_recorded () =
  let sys = l2_stack Mode.Baseline in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      Guest.wrmsr v Svt_arch.Msr.Ia32_tsc_deadline 0L);
  System.run sys;
  let m = System.metrics sys in
  checki "cpuid exits" 1 (Svt_stats.Metrics.counter m "l2_exit.CPUID");
  checki "msr exits" 1 (Svt_stats.Metrics.counter m "l2_exit.MSR_WRITE");
  checkb "time attributed" true
    (Svt_stats.Metrics.time m "l2_exit_time.CPUID" > Time.zero)

let test_guest_hlt_and_timer () =
  let sys = l2_stack Mode.Baseline in
  let vcpu = System.vcpu0 sys in
  let woke = ref Time.zero in
  Vcpu.spawn_program vcpu (fun v ->
      Guest.arm_timer v ~after:(Time.of_us 200);
      Guest.hlt v;
      woke := Proc.now ());
  System.run sys;
  checkb "timer woke the guest" true (!woke >= Time.of_us 200);
  checkb "not too late" true (!woke < Time.of_us 400)

let test_levels_ordering () =
  (* L0 < L1 < L2 for the same operation *)
  let t level =
    let sys = System.of_config (System.Config.make ~mode:Mode.Baseline ~level ()) in
    let vcpu = System.vcpu0 sys in
    let out = ref Time.zero in
    Vcpu.spawn_program vcpu (fun v ->
        ignore (Guest.cpuid v ~leaf:1);
        let t0 = Proc.now () in
        ignore (Guest.cpuid v ~leaf:1);
        out := Time.diff (Proc.now ()) t0);
    System.run sys;
    !out
  in
  let l0 = t System.L0_native and l1 = t System.L1_leaf and l2 = t System.L2_nested in
  checkb "l0 < l1" true (l0 < l1);
  checkb "l1 < l2" true (l1 < l2);
  checkb "l2 >> l0 (two orders, Fig 6)" true (l2 > Time.scale l0 100.0)

let test_vmcs_shadow_state_consistent () =
  let sys = l2_stack Mode.Baseline in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      ignore (Guest.cpuid v ~leaf:1));
  System.run sys;
  let n = System.nested_path sys 0 in
  (* after the last resume, vmcs02 is the current VMCS and vmcs12 is clean *)
  checkb "vmcs02 current" true (Svt_vmcs.Vmcs.is_current (Nested.vmcs02 n));
  checki "vmcs12 clean after entry transform" 0
    (List.length (Svt_vmcs.Vmcs.dirty_fields (Nested.vmcs12 n)));
  (* the trap flowed through the shadow: L1 saw the exit reason *)
  checki "exit reason in vmcs12" 10
    (Svt_vmcs.Vmcs.exit_reason_number (Nested.vmcs12 n))

(* --- arch backend through the stack ---------------------------------------- *)

module Backend = Svt_arch.Backend

(* HW SVt extends VMCS-caching hardware that ARM NV/VHE does not have:
   the config layer must refuse it with the typed error, not build a
   meaningless stack. *)
let test_arch_hw_svt_rejected_on_arm () =
  let cfg =
    System.Config.make ~arch:Backend.Arm ~mode:Mode.Hw_svt
      ~level:System.L2_nested ()
  in
  (match System.Config.validate cfg with
  | Ok _ -> Alcotest.fail "hw-svt must not validate on arm"
  | Error errs ->
      checkb "typed error" true
        (List.exists
           (function
             | System.Config.Hw_svt_needs_shadow_vmcs { arch } ->
                 Backend.equal arch Backend.Arm
             | _ -> false)
           errs));
  (* x86 keeps the design point *)
  checkb "x86 hw-svt still validates" true
    (Result.is_ok
       (System.Config.validate
          (System.Config.make ~mode:Mode.Hw_svt ~level:System.L2_nested ())))

let test_arch_arm_collapses_shadow () =
  (* even an explicit request for hardware shadowing collapses to
     no_shadowing on a backend without a shadow VMCS *)
  let cfg =
    System.Config.make ~arch:Backend.Arm
      ~shadow:Svt_vmcs.Shadow.hardware_shadowing_enabled ~mode:Mode.Baseline
      ~level:System.L2_nested ()
  in
  (* Shadow.t is abstract (it holds a predicate): observe the collapse
     through behaviour — under no_shadowing every field access traps *)
  checkb "no shadow vmcs on arm" true
    (Svt_vmcs.Shadow.count_trapping cfg.System.Config.shadow
       Svt_vmcs.Field.all
    = Svt_vmcs.Shadow.count_trapping Svt_vmcs.Shadow.no_shadowing
        Svt_vmcs.Field.all);
  let sys = System.of_config cfg in
  checkb "arch recorded" true (Backend.equal (System.arch sys) Backend.Arm);
  checkb "arm cost table wired" true
    ((System.cost sys).Cost_model.svt_sysreg_direct <> None)

(* The headline cross-ISA claim, end to end: the ARM baseline nested
   cpuid is dearer than x86's (memory-backed sysreg image, no shadow
   VMCS), and precisely because of that, SVt's relative speedup on ARM
   exceeds its x86 speedup. *)
let test_arch_arm_speedup_exceeds_x86 () =
  let nested_us ?arch mode =
    let sys = l2_stack ?arch mode in
    let vcpu = System.vcpu0 sys in
    let out = ref Time.zero in
    Vcpu.spawn_program vcpu (fun v ->
        ignore (Guest.cpuid v ~leaf:1);
        let t0 = Proc.now () in
        ignore (Guest.cpuid v ~leaf:1);
        out := Time.diff (Proc.now ()) t0);
    System.run sys;
    Time.to_us_f !out
  in
  let x86_base = nested_us Mode.Baseline in
  let x86_svt = nested_us Mode.sw_svt_default in
  let arm_base = nested_us ~arch:Backend.Arm Mode.Baseline in
  let arm_svt = nested_us ~arch:Backend.Arm Mode.sw_svt_default in
  checkb "arm baseline dearer than x86" true (arm_base > x86_base);
  checkb "svt wins on both" true (arm_svt < arm_base && x86_svt < x86_base);
  checkb "arm relative speedup larger" true
    (arm_base /. arm_svt > x86_base /. x86_svt)

(* Allocation guard for stack construction: a default x86 L2 baseline
   stack allocates about 131 KB. Construction is deterministic and the
   count is exact, so the 200 KB bound needs no noise margin; a boxed
   entry per mapped guest page, or another eagerly filled table of that
   size, fails it. *)
let test_of_config_alloc_guard () =
  let cfg = System.Config.make ~mode:Mode.Baseline ~level:System.L2_nested () in
  ignore (System.of_config cfg : System.t) (* warm-up *);
  let w0 = Svt_obs.Profiler.allocated_words () in
  ignore (System.of_config cfg : System.t);
  let kb =
    (Svt_obs.Profiler.allocated_words () -. w0)
    *. float_of_int (Sys.word_size / 8)
    /. 1024.0
  in
  checkb (Printf.sprintf "of_config allocates %.1f KB (bound 200)" kb) true (kb <= 200.0)

let () =
  Alcotest.run "svt_core"
    [
      ( "construction",
        [
          Alcotest.test_case "of_config allocation guard" `Quick
            test_of_config_alloc_guard;
        ] );
      ( "mode-wait",
        [
          Alcotest.test_case "mode names" `Quick test_mode_names;
          Alcotest.test_case "wait latency ordering" `Quick
            test_wait_ordering_small_workload;
          Alcotest.test_case "cross-NUMA order of magnitude" `Quick
            test_wait_numa_order_of_magnitude;
          Alcotest.test_case "only polling steals cycles" `Quick
            test_wait_only_polling_steals;
          Alcotest.test_case "backoff monotone and capped" `Quick
            test_backoff_monotone_and_capped;
        ] );
      ( "channel",
        [
          Alcotest.test_case "payload through shared memory" `Quick
            test_channel_payload_roundtrip;
          Alcotest.test_case "blocking recv with wake charges" `Quick
            test_channel_blocking_recv;
          Alcotest.test_case "fifo order" `Quick test_channel_fifo_and_overflow;
        ] );
      ( "svt-fields",
        [
          Alcotest.test_case "table 2 inventory" `Quick test_table2_inventory;
          Alcotest.test_case "vmptrld loads u-registers" `Quick
            test_svt_fields_vmptrld_loads_uregs;
        ] );
      ( "single-level",
        [
          Alcotest.test_case "episode costs by mode" `Quick
            test_single_level_episode_costs;
        ] );
      ( "arch",
        [
          Alcotest.test_case "hw-svt rejected on arm" `Quick
            test_arch_hw_svt_rejected_on_arm;
          Alcotest.test_case "arm collapses shadow policy" `Quick
            test_arch_arm_collapses_shadow;
          Alcotest.test_case "arm SVt speedup exceeds x86 (section 7)" `Quick
            test_arch_arm_speedup_exceeds_x86;
        ] );
      ( "nested",
        [
          Alcotest.test_case "cpuid reply correct in all modes" `Quick
            test_nested_cpuid_reply_correct;
          Alcotest.test_case "figure 6 speedups" `Quick test_nested_figure6_shape;
          Alcotest.test_case "table 1 breakdown" `Quick test_nested_table1_breakdown;
          Alcotest.test_case "hw mode drives hardware contexts" `Quick
            test_nested_hw_uses_hardware_contexts;
          Alcotest.test_case "SVT_BLOCKED protocol (section 5.3)" `Quick
            test_nested_sw_blocked_protocol;
          Alcotest.test_case "TLB-shootdown progress (section 5.3)" `Quick
            test_nested_sw_tlb_shootdown_progress;
          Alcotest.test_case "malicious L1 pointer reflected" `Quick
            test_nested_malicious_l1_pointer_reflected;
          Alcotest.test_case "shadowing off costs more (section 2.1)" `Quick
            test_nested_shadowing_off_costs_more;
          Alcotest.test_case "full-nesting upper bound (section 3)" `Quick
            test_full_nesting_upper_bound;
          Alcotest.test_case "ooh delegation position (section 3)" `Quick
            test_ooh_delegation_position;
          Alcotest.test_case "ooh delegated/residual split" `Quick
            test_ooh_delegated_residual_split;
          Alcotest.test_case "context multiplexing (section 3.1)" `Quick
            test_hw_svt_multiplexed_contexts;
          Alcotest.test_case "exit metrics recorded" `Quick
            test_nested_exit_metrics_recorded;
          Alcotest.test_case "hlt and timer wake" `Quick test_guest_hlt_and_timer;
          Alcotest.test_case "levels ordering" `Quick test_levels_ordering;
          Alcotest.test_case "shadow VMCS consistency" `Quick
            test_vmcs_shadow_state_consistent;
        ] );
    ]
