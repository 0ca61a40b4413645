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


(* A counter's value as the sorted listing reports it (0 when absent). *)
let counter m name =
  Option.value ~default:0 (List.assoc_opt name (Svt_stats.Metrics.counters m))

(* Collect every span [sys] emits from now on, newest first. *)
let record_spans sys =
  let spans = ref [] in
  Svt_obs.Probe.subscribe (System.probe sys) (fun s -> spans := s :: !spans);
  spans

(* World-switch legs with tag [key] = [value]. *)
let count_legs spans key value =
  List.length
    (List.filter
       (fun s ->
         s.Svt_obs.Span.kind = Svt_obs.Span.World_switch
         && Svt_obs.Span.tag s key = Some value)
       !spans)

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
  Alcotest.(check string) "hw" "hw-svt" (Mode.name Mode.Hw_svt)

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
      checkb (name ^ " total below zero") true (f (-5) = f 0);
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
      checkb (name ^ " reaches its cap") true (f 128 = cap);
      checkb (name ^ " cap at max_int attempts") true (f max_int = cap))
    curves

(* --- Channel ------------------------------------------------------------------ *)

(* A channel in a 1 MB guest: its two rings are the first two pages
   carved after RAM. *)
let make_channel_in_guest () =
  let machine = Svt_hyp.Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  let aspace = Svt_hyp.Vm.aspace vm in
  let ch =
    Channel.create ~machine ~aspace ~wait:Mode.Mwait
      ~placement:Mode.Smt_sibling
      ~core:(Svt_hyp.Machine.core machine 0)
      ~ctx:0 ()
  in
  (machine, aspace, ch)

let make_channel () =
  let machine, _, ch = make_channel_in_guest () in
  (machine, ch)

(* Load the 16 GPRs of context 0 of core 0, the context the test
   channels copy into their entries. *)
let set_gprs machine regs =
  let rf = Svt_arch.Smt_core.regfile (Svt_hyp.Machine.core machine 0) in
  List.iteri
    (fun j g -> Svt_arch.Regfile.write rf ~ctx:0 (Svt_arch.Reg.Gpr g) regs.(j))
    Svt_arch.Reg.all_gprs

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
      post_ok ch (Channel.to_svt ch) bd
        (Channel.Vm_trap { seq = 1; reason = Exit_reason.Cpuid; qual = 7L });
      got := Channel.try_recv ch (Channel.to_svt ch) bd);
  Simulator.run (Svt_hyp.Machine.sim machine);
  match !got with
  | Some (Channel.Vm_trap { seq; reason; qual }) ->
      checki "seq survives memory" 1 seq;
      checkb "reason survives memory" true (reason = Exit_reason.Cpuid);
      checkb "qual" true (qual = 7L)
  | _ -> Alcotest.fail "expected the trap command back"

let test_channel_blocking_recv () =
  let machine, ch = make_channel () in
  let bd = Breakdown.create () in
  let sim = Svt_hyp.Machine.sim machine in
  let got = ref None in
  Simulator.spawn sim ~name:"svt-thread" (fun () ->
      got := Some (Channel.recv ch (Channel.to_svt ch) bd));
  Simulator.spawn sim ~name:"l0" (fun () ->
      Proc.delay (Time.of_us 5);
      post_ok ch (Channel.to_svt ch) bd
        (Channel.Vm_resume { seq = 1 }));
  Simulator.run sim;
  checkb "received" true
    (match !got with Some (Channel.Vm_resume _) -> true | _ -> false);
  (* the waits and ring accesses were charged to the Channel bucket *)
  checkb "channel time charged" true
    (Breakdown.time bd Breakdown.Channel > Time.zero)

(* The ring entry as a word-by-word writer lays it out: code u32 | reason
   u32 | qual u64 | seq u64 | regs u64 x 16, little-endian, and the fields
   a command does not carry are zero. [regs] are the GPRs the trap and
   resume commands carry. *)
let reference_entry cmd regs =
  let b = Bytes.make 152 '\000' in
  let u32 off v = Bytes.set_int32_le b off (Int32.of_int v) in
  let u64 off v = Bytes.set_int64_le b off v in
  let payload seq =
    u64 16 (Int64.of_int seq);
    Array.iteri (fun j r -> u64 (24 + (8 * j)) r) regs
  in
  (match cmd with
  | Channel.Vm_trap { seq; reason; qual } ->
      u32 0 1;
      u32 4 (Exit_reason.basic_number reason);
      u64 8 qual;
      payload seq
  | Channel.Vm_resume { seq } ->
      u32 0 2;
      payload seq
  | Channel.Blocked -> u32 0 3
  | Channel.Corrupt _ -> assert false);
  b

let hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

(* The bytes in guest memory are the layout above, entry by entry, with
   the GPRs the register file held when each was posted, also where a
   short command overwrites a full one after the ring wraps. *)
let test_channel_entry_bytes () =
  let machine, aspace, ch = make_channel_in_guest () in
  let module Aspace = Svt_mem.Address_space in
  let module Gpa = Svt_mem.Addr.Gpa in
  (* the two rings are the first two pages carved after RAM; the one
     whose head moves on a post to [to_svt] is that ring *)
  let ring_pages = List.map (fun k -> Gpa.of_int ((1 lsl 20) + (k * 4096))) [ 0; 1 ] in
  let base = ref (List.hd ring_pages) in
  (* every byte of every register set, sign bit included, and a
     different set before each post *)
  let regs i =
    Array.init 16 (fun j -> Int64.(logor min_int (of_int ((i + 1) * (j + 1) * 0x1010101))))
  in
  let cmds =
    List.init 18 (fun i ->
        match i mod 5 with
        | 0 ->
            Channel.Vm_trap { seq = i; reason = Exit_reason.Ept_misconfig; qual = -1L }
        | 1 -> Channel.Vm_resume { seq = i }
        | 2 -> Channel.Blocked
        | 3 -> Channel.Vm_trap { seq = -i; reason = Exit_reason.Xsetbv; qual = 0x1234L }
        | _ -> Channel.Vm_resume { seq = max_int })
  in
  let bd = Breakdown.create () in
  Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
      List.iteri
        (fun i cmd ->
          set_gprs machine (regs i);
          post_ok ch (Channel.to_svt ch) bd cmd;
          if i = 0 then
            base := List.find (fun g -> Aspace.read_u32 aspace g = 1) ring_pages;
          let base = !base in
          let entry = Gpa.add base (8 + (i mod 16 * 152)) in
          Alcotest.(check string)
            (Printf.sprintf "entry %d bytes" i)
            (hex (reference_entry cmd (regs i)))
            (hex (Aspace.read_bytes aspace entry 152));
          checki "head counts posts" (i + 1) (Aspace.read_u32 aspace base);
          ignore (Channel.try_recv ch (Channel.to_svt ch) bd);
          checki "tail counts receives" (i + 1) (Aspace.read_u32 aspace (Gpa.add base 4)))
        cmds);
  Simulator.run (Svt_hyp.Machine.sim machine)

(* A ring reads and writes the guest's own bytes once it is pinned, not
   a copy taken at its first use: an entry and a head written through
   the guest-physical accessors after that are what [try_recv] decodes,
   also after host memory has grown to back a fresh guest page. *)
let test_channel_ring_is_guest_memory () =
  let machine, aspace, ch = make_channel_in_guest () in
  let module Aspace = Svt_mem.Address_space in
  let module Gpa = Svt_mem.Addr.Gpa in
  let bd = Breakdown.create () in
  let got = ref None in
  Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
      let ring = Channel.to_svt ch in
      post_ok ch ring bd Channel.Blocked;
      ignore (Channel.try_recv ch ring bd);
      (* the ring whose head the post moved is [to_svt] *)
      let base =
        List.find
          (fun g -> Aspace.read_u32 aspace g = 1)
          [ Gpa.of_int (1 lsl 20); Gpa.of_int ((1 lsl 20) + 4096) ]
      in
      let cmd = Channel.Vm_trap { seq = 42; reason = Exit_reason.Cpuid; qual = 0x77L } in
      Aspace.write_bytes aspace (Gpa.add base (8 + 152))
        (reference_entry cmd (Array.make 16 0L));
      let fresh = Aspace.alloc_guest_pages aspace 1024 in
      Aspace.write_u64 aspace (Gpa.add fresh (1023 * 4096)) 1;
      Aspace.write_u32 aspace base 2;
      checkb "head seen" true (Channel.pending_ring ring);
      got := Channel.try_recv ch ring bd;
      checki "tail written to guest memory" 2 (Aspace.read_u32 aspace (Gpa.add base 4)));
  Simulator.run (Svt_hyp.Machine.sim machine);
  checkb "decodes the entry the guest wrote" true
    (!got
    = Some (Channel.Vm_trap { seq = 42; reason = Exit_reason.Cpuid; qual = 0x77L }))

let test_channel_fifo_and_overflow () =
  let machine, ch = make_channel () in
  let bd = Breakdown.create () in
  let sim = Svt_hyp.Machine.sim machine in
  Simulator.spawn sim (fun () ->
      for i = 1 to 3 do
        post_ok ch (Channel.to_svt ch) bd
          (Channel.Vm_trap
             { seq = i; reason = Exit_reason.Cpuid; qual = Int64.of_int i })
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
  let vmcs = Svt_vmcs.Vmcs.create () in
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

(* [Single_level.handle] takes exactly [episode_cost]: the vhost and
   blk backends price an L1 exit with the formula, and the handler is
   what a guest pays, so the two must agree. Each exit the guest API
   raises on an L1-leaf stack is measured around the handler, as a
   Breakdown delta and as elapsed virtual time, in every mode. *)
let test_single_level_handle_matches_episode_cost () =
  List.iter
    (fun mode ->
      let sys =
        System.of_config (System.Config.make ~mode ~level:System.L1_leaf ())
      in
      let blk, _ = System.attach_blk sys in
      let cost = System.cost sys in
      let seen = ref [] in
      let v0 = System.vcpu0 sys in
      Vcpu.set_privileged v0 (fun v (info : Exit.info) ->
          let bd = Vcpu.breakdown v in
          let t0 = Proc.now () and b0 = Breakdown.total bd in
          Single_level.handle ~cost ~mode v info;
          seen :=
            ( info.reason,
              Time.diff (Proc.now ()) t0,
              Time.diff (Breakdown.total bd) b0 )
            :: !seen);
      Vcpu.spawn_program v0 (fun v ->
          ignore (Guest.cpuid v ~leaf:1);
          Guest.wrmsr v Svt_arch.Msr.Ia32_star 1L;
          ignore (Guest.rdmsr v Svt_arch.Msr.Ia32_star);
          Guest.io_write v ~port:0x80 1;
          ignore (Guest.io_read v ~port:0x80);
          Guest.mmio_write32 v (Svt_virtio.Virtio_blk.doorbell_gpa blk) 1);
      System.run sys;
      checki (Mode.name mode ^ ": exits measured") 6 (List.length !seen);
      List.iter
        (fun (reason, elapsed, charged) ->
          let want = Single_level.episode_cost ~cost ~mode reason in
          let label = Mode.name mode ^ " " ^ Exit_reason.name reason in
          checki (label ^ ": elapsed") want elapsed;
          checki (label ^ ": charged") want charged)
        !seen)
    Mode.all

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
    ];
  (* the views are read-only, so every stack shares one per level *)
  let view mode = Svt_hyp.Vm.cpuid_db (System.guest_vm (l2_stack mode)) in
  checkb "one L2 view per process" true (view Mode.Baseline == view Mode.Hw_svt)

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
  let expect name bucket paper =
    checkb
      (Printf.sprintf "%s ~ %.2fus" name paper)
      true
      (Float.abs (per bucket -. paper) < 0.12 *. paper +. 0.06)
  in
  expect "L2" Breakdown.L2_guest 0.05;
  expect "switch L2<->L0" Breakdown.Switch_l2_l0 0.81;
  expect "transform" Breakdown.Transform 1.29;
  expect "L0 handler" Breakdown.L0_handler 4.89;
  expect "switch L0<->L1" Breakdown.Switch_l0_l1 1.40;
  expect "L1 handler" Breakdown.L1_handler 1.96

let test_nested_hw_uses_hardware_contexts () =
  let sys = l2_stack Mode.Hw_svt in
  let vcpu = System.vcpu0 sys in
  let core = Vcpu.core vcpu in
  Vcpu.spawn_program vcpu (fun v -> ignore (Guest.cpuid v ~leaf:1));
  System.run sys;
  (* trap/resume events flowed through the core's context switch logic *)
  checkb "thread switches happened" true (Svt_arch.Smt_core.switches core >= 4);
  (* the run ends on a VM resume: a guest context, not L0's context 0,
     is the one fetching *)
  checkb "guest context fetches at the end" true
    (Svt_arch.Smt_core.current core <> 0)

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
  let acked = Simulator.Signal.create sim and is_acked = ref false in
  let shootdown_done_at = ref Time.zero in
  (* the L1 kernel thread on another vCPU *)
  let l1_kernel_lapic = Svt_interrupt.Lapic.create sim in
  Svt_interrupt.Lapic.set_on_pending l1_kernel_lapic (fun _ ->
      (* the IPI physically lands on the pCPU running L2: a host event *)
      Vcpu.enqueue_host_event vcpu ~vector:0xFD (fun () ->
          is_acked := true;
          Simulator.Signal.broadcast acked));
  Simulator.spawn sim ~name:"l1-kernel-thread" (fun () ->
      Proc.delay (Time.of_us 3);
      (* lands while L0 waits for CMD_VM_RESUME of the cpuid episode: the
         IPI arrives after its 700 ns delivery cost, then the sender waits
         for the acknowledgement *)
      ignore
        (Simulator.schedule sim ~after:(Time.of_ns 700) (fun () ->
             Svt_interrupt.Lapic.raise_vector l1_kernel_lapic 0xFD));
      if not !is_acked then Simulator.Signal.wait acked;
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
    (Svt_fault.Injector.count (System.injector sys)
       Svt_fault.Outcome.Entry_fail_reflected
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
  let spans = record_spans sys in
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to 4 do
        ignore (Guest.cpuid v ~leaf:1)
      done);
  System.run sys;
  (* a delegated exit enters L1 on a [via=ooh] leg; a residual one
     reflects, which starts with the L2 -> L0 leg *)
  checki "all cpuid exits delegated" 4 (count_legs spans "via" "ooh");
  checki "no residual exits" 0 (count_legs spans "leg" "l2-l0");
  (* an external interrupt for L1 is residual: it reflects through L0 and
     pays the delegation re-arm on top of the baseline episode *)
  let sys = l2_stack Mode.Ooh in
  let vcpu = System.vcpu0 sys in
  let spans = record_spans sys in
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
  checkb "interrupt serviced" true !serviced;
  checkb "interrupt took the residual path" true
    (count_legs spans "leg" "l2-l0" >= 1)

let test_nested_exit_metrics_recorded () =
  let sys = l2_stack Mode.Baseline in
  let vcpu = System.vcpu0 sys in
  Vcpu.spawn_program vcpu (fun v ->
      ignore (Guest.cpuid v ~leaf:1);
      Guest.wrmsr v Svt_arch.Msr.Ia32_tsc_deadline 0L);
  System.run sys;
  let m = System.metrics sys in
  checki "cpuid exits" 1 (counter m "l2_exit.CPUID");
  checki "msr exits" 1 (counter m "l2_exit.MSR_WRITE");
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
  (* after the last resume, vmcs12 is clean *)
  checki "vmcs12 clean after entry transform" 0
    (List.length (Svt_vmcs.Vmcs.dirty_fields (Nested.vmcs12 n)));
  (* the trap flowed through the shadow: L1 saw the exit reason *)
  Alcotest.(check int64) "exit reason in vmcs12" 10L
    (Svt_vmcs.Vmcs.peek (Nested.vmcs12 n) Svt_vmcs.Field.Exit_reason)

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
     through behaviour — under no_shadowing no field is shadowed *)
  checkb "no shadow vmcs on arm" true
    (List.for_all
       (fun f -> not (Svt_vmcs.Shadow.shadowed cfg.System.Config.shadow f))
       Svt_vmcs.Field.all);
  let sys = System.of_config cfg in
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

(* Allocation guard for stack construction, on the seven stacks every
   fuzz input builds. Each allocates 11.2–12.7 KB, all of it on the
   minor heap: a block above [Max_young_wosize] (256 words) goes straight
   to the major heap and is paid for again by a major collection, so a
   512-slot EPT table (4 KB) fails the first check. Direct major words are major minus promoted words, read after
   a minor collection on each side, as [Profiler.allocated_words] reads
   them. Construction is deterministic and the counts exact, so the
   20 KB bound needs no noise margin. *)
let test_of_config_alloc_guard () =
  let words () =
    Gc.minor ();
    let g = Gc.quick_stat () in
    (g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words,
     g.Gc.major_words -. g.Gc.promoted_words)
  in
  List.iter
    (fun (arch, mode) ->
      let cfg =
        System.Config.make ~arch ~max_sim_events:Svt_fuzz.Fuzz.default_budget
          ~mode ~level:System.L2_nested ()
      in
      ignore (System.of_config cfg : System.t) (* warm-up *);
      let total0, major0 = words () in
      ignore (Sys.opaque_identity (System.of_config cfg) : System.t);
      let total1, major1 = words () in
      let label = Svt_fuzz.Fuzz.point_label (arch, mode) in
      checki (label ^ ": direct major-heap words") 0
        (int_of_float (major1 -. major0));
      let kb = (total1 -. total0) *. float_of_int (Sys.word_size / 8) /. 1024.0 in
      checkb (Printf.sprintf "%s: of_config allocates %.1f KB (bound 20)" label kb)
        true (kb <= 20.0))
    Svt_fuzz.Fuzz.modes

(* Allocation guard for the nested exit: a baseline L2 MSR_WRITE exit
   runs the reflection protocol end to end (the exit and entry
   transforms, the entry checks, the L1 handler with its six aux round
   trips, every charged leg) and allocates 45 words, the guest's own exit
   record and the boxed vmcs field values included; under HW SVt, with
   its 16 hardware-context switches, 49. A closure per leg reads 69
   words, a script list per exit 134 and a closure per context switch
   145, so the bound is 60. SW SVt adds the round trip through the two
   command rings and the two processes' waits: 97 words, the trap and
   resume commands and their decoded copies included. With a closure
   and a [Call] around every wake-up, a retry closure per post and the
   pending exit boxed in an option it read 185, so its bound is 120.
   Under OOH the exit is delegated: it goes straight into L1, whose
   handler runs on the delegated vmcs12 fields with no reflection and no
   transform, and allocates 16 words; its bound is 20. *)
let test_nested_exit_alloc_guard () =
  let exits = 2_000 in
  List.iter
    (fun (mode, bound) ->
      let sys = l2_stack mode in
      let words = ref 0. in
      Vcpu.spawn_program (System.vcpu0 sys) (fun v ->
          let wrmsr () = Guest.wrmsr v Svt_arch.Msr.Ia32_star 1L in
          for _ = 1 to 50 do wrmsr () done;
          Gc.minor ();
          let before = Gc.minor_words () in
          for _ = 1 to exits do wrmsr () done;
          words := Gc.minor_words () -. before);
      System.run sys;
      let per_exit = !words /. float_of_int exits in
      if per_exit > bound then
        Alcotest.failf "%.1f words per %s MSR_WRITE exit (at most %.0f)"
          per_exit (Mode.name mode) bound)
    [ (Mode.Baseline, 60.); (Mode.Hw_svt, 60.); (Mode.sw_svt_default, 120.);
      (Mode.Ooh, 20.) ]

(* A fuel budget below one event is a configuration error, reported
   through the typed [Config.error] front door like every other bad knob
   rather than as an [Invalid_argument] from the simulator. *)
let test_zero_fuel_rejected () =
  let cfg =
    System.Config.make ~max_sim_events:0 ~mode:Mode.Baseline
      ~level:System.L2_nested ()
  in
  (match System.Config.validate cfg with
  | Ok _ -> Alcotest.fail "max_sim_events = 0 must not validate"
  | Error errs ->
      Alcotest.(check string)
        "typed error" "max_sim_events = 0 (need at least 1)"
        (String.concat "; "
           (List.map (Fmt.str "%a" System.Config.pp_error) errs)));
  checkb "of_config raises Invalid_config" true
    (match System.of_config cfg with
    | _ -> false
    | exception System.Invalid_config _ -> true)

let () =
  Alcotest.run "svt_core"
    [
      ( "construction",
        [
          Alcotest.test_case "of_config allocation guard" `Quick
            test_of_config_alloc_guard;
          Alcotest.test_case "nested exit allocation guard" `Quick
            test_nested_exit_alloc_guard;
          Alcotest.test_case "zero fuel budget rejected" `Quick
            test_zero_fuel_rejected;
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
          Alcotest.test_case "entry bytes" `Quick test_channel_entry_bytes;
          Alcotest.test_case "ring is live guest memory" `Quick
            test_channel_ring_is_guest_memory;
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
          Alcotest.test_case "handle charges the episode cost" `Quick
            test_single_level_handle_matches_episode_cost;
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
