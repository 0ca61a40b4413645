(* Tests for the hypervisor substrate: the machine, VMs and dispatch
   tables, vCPU mechanics (compute, interrupts, host events, HLT), the
   Table-1 breakdown accounting, operation semantics, and the L1 handler
   scripts. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Machine = Svt_hyp.Machine
module Vm = Svt_hyp.Vm
module Vcpu = Svt_hyp.Vcpu
module Exit = Svt_hyp.Exit
module Breakdown = Svt_hyp.Breakdown
module Semantics = Svt_hyp.Semantics
module L1_script = Svt_hyp.L1_script
module Lapic = Svt_interrupt.Lapic
module Exit_reason = Svt_arch.Exit_reason

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let make () =
  let machine = Machine.create () in
  let vm =
    Vm.create ~machine ~name:"g" ~level:2 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  let vcpu = Vcpu.create ~machine ~vm ~index:0 ~core_id:0 ~hw_ctx:0 in
  (machine, vm, vcpu)

(* --- Machine ------------------------------------------------------------- *)

let test_machine_topology () =
  let m = Machine.create () in
  (* Table 4: 2 sockets x 8 cores, 2-way SMT *)
  checki "16 cores" 16 (Array.length m.Machine.cores);
  checki "2 contexts per core" 2
    (Svt_arch.Smt_core.n_contexts (Machine.core m 0));
  checki "2 sockets" 2 m.Machine.config.sockets;
  checki "8 cores per socket" 8 m.Machine.config.cores_per_socket

(* --- Vm dispatch ------------------------------------------------------------ *)

let test_vm_mmio_dispatch () =
  let machine, vm, _ = make () in
  ignore machine;
  let bar =
    Svt_mem.Address_space.add_mmio_region (Vm.aspace vm) ~name:"dev0" ~len:4096
  in
  let hits = ref [] in
  Vm.register_mmio vm ~region:"dev0" (fun gpa value size ->
      hits := (Svt_mem.Addr.Gpa.to_int gpa, value, size) :: !hits;
      Some 0x99L);
  (match Vm.handle_mmio vm bar 5L 4 with
  | Some v -> check64 "handler reply" 0x99L v
  | None -> Alcotest.fail "handler must run");
  checki "hit recorded" 1 (List.length !hits);
  (* unknown region: no handler *)
  checkb "ram access no handler" true
    (Vm.handle_mmio vm (Svt_mem.Addr.Gpa.of_int 0x100) 0L 4 = None)

(* MMIO dispatch finds the region from the EPT tag of the page, however
   many regions the address space holds: 600 allocations of 1-3 pages
   around two BARs, every page of each BAR reaching its own handler, and
   every other address (RAM, allocated, unmapped) answering None, as a
   linear scan over the regions recorded here says. *)
let test_vm_mmio_dispatch_many_regions () =
  let _, vm, _ = make () in
  let aspace = Vm.aspace vm in
  let page = Svt_mem.Addr.page_size in
  (* (name, base, pages, is_mmio), RAM first *)
  let regions = ref [ ("ram", 0, (1 lsl 20) / page, false) ] in
  let alloc i =
    let pages = 1 + (i mod 3) in
    let base = Svt_mem.Address_space.alloc_guest_pages aspace pages in
    regions := ("alloc", Svt_mem.Addr.Gpa.to_int base, pages, false) :: !regions
  in
  let bar name pages =
    let base =
      Svt_mem.Address_space.add_mmio_region aspace ~name ~len:((pages - 1) * page + 1)
    in
    regions := (name, Svt_mem.Addr.Gpa.to_int base, pages, true) :: !regions;
    Vm.register_mmio vm ~region:name (fun _ value _ ->
        Some (Int64.add value (Int64.of_int (Hashtbl.hash name))));
    Svt_mem.Addr.Gpa.to_int base
  in
  for i = 1 to 300 do alloc i done;
  let bar0 = bar "bar0" 3 in
  for i = 301 to 500 do alloc i done;
  let bar1 = bar "bar1" 2 in
  for i = 501 to 600 do alloc i done;
  let reply name = Some (Int64.add 7L (Int64.of_int (Hashtbl.hash name))) in
  let dispatch a = Vm.handle_mmio vm (Svt_mem.Addr.Gpa.of_int a) 7L 4 in
  List.iter
    (fun (name, base, pages) ->
      for p = 0 to pages - 1 do
        List.iter
          (fun off ->
            checkb (Printf.sprintf "%s page %d +%#x" name p off) true
              (dispatch (base + (p * page) + off) = reply name))
          [ 0; 0x10; page - 4 ]
      done)
    [ ("bar0", bar0, 3); ("bar1", bar1, 2) ];
  let scan a =
    match
      List.find_opt (fun (_, base, pages, _) -> a >= base && a < base + (pages * page)) !regions
    with
    | Some (name, _, _, true) -> reply name
    | Some (_, _, _, false) | None -> None
  in
  let top = List.fold_left (fun m (_, b, p, _) -> max m (b + (p * page))) 0 !regions in
  let probes = ref 0 in
  let a = ref 0x100 in
  while !a < top + (64 * page) do
    incr probes;
    checkb (Printf.sprintf "gpa %#x" !a) true (dispatch !a = scan !a);
    a := !a + 1021
  done;
  checki "regions recorded" 603 (List.length !regions);
  checkb "probes cover the space" true (!probes > 1000)

(* --- Vcpu ---------------------------------------------------------------------- *)

let test_vcpu_compute_advances_time () =
  let machine, _, vcpu = make () in
  let at = ref Time.zero in
  Vcpu.spawn_program vcpu (fun v ->
      Vcpu.compute v (Time.of_us 10);
      at := Proc.now ());
  Simulator.run (Machine.sim machine);
  checki "10us" (Time.of_us 10) !at

let test_vcpu_compute_interrupted_by_irq () =
  let machine, _, vcpu = make () in
  let delivered_at = ref Time.zero in
  Vcpu.set_deliver_guest_irq vcpu (fun v vector ->
      checki "vector" 0x55 vector;
      delivered_at := Proc.now ();
      ignore v);
  Vcpu.spawn_program vcpu (fun v -> Vcpu.compute v (Time.of_us 100));
  ignore
    (Simulator.schedule (Machine.sim machine) ~after:(Time.of_us 30) (fun () ->
         Lapic.raise_vector (Vcpu.lapic vcpu) 0x55));
  Simulator.run (Machine.sim machine);
  checki "delivered mid-compute" (Time.of_us 30) !delivered_at

let test_vcpu_hlt_wakes_on_irq () =
  let machine, _, vcpu = make () in
  Vcpu.set_deliver_guest_irq vcpu (fun _ _ -> ());
  let woke = ref Time.zero in
  Vcpu.spawn_program vcpu (fun v ->
      Vcpu.wait_for_interrupt v;
      woke := Proc.now ());
  ignore
    (Simulator.schedule (Machine.sim machine) ~after:(Time.of_us 70) (fun () ->
         Lapic.raise_vector (Vcpu.lapic vcpu) 0x31));
  Simulator.run (Machine.sim machine);
  checki "woke on irq" (Time.of_us 70) !woke;
  checkb "idle time accounted" true (Vcpu.halted_time vcpu >= Time.of_us 69)

let test_vcpu_host_events_run_at_boundaries () =
  let machine, _, vcpu = make () in
  let ran = ref [] in
  Vcpu.set_deliver_host_event vcpu (fun _ ~vector ~work ->
      ran := vector :: !ran;
      work ());
  Vcpu.spawn_program vcpu (fun v ->
      Vcpu.compute v (Time.of_us 5);
      Vcpu.compute v (Time.of_us 5));
  ignore
    (Simulator.schedule (Machine.sim machine) ~after:(Time.of_us 2) (fun () ->
         Vcpu.enqueue_host_event vcpu ~vector:0x31 (fun () -> ())));
  Simulator.run (Machine.sim machine);
  checkb "ran through hook" true (!ran = [ 0x31 ])

let test_vcpu_unwired_trap_fails () =
  let machine, _, vcpu = make () in
  Vcpu.spawn_program vcpu (fun v ->
      Vcpu.trap v (Exit.of_action Exit.Halt));
  checkb "fails loudly" true
    (try
       Simulator.run (Machine.sim machine);
       false
     with Failure _ -> true)

(* --- Breakdown --------------------------------------------------------------- *)

let test_breakdown_charge_and_rows () =
  let machine, _, vcpu = make () in
  let bd = Vcpu.breakdown vcpu in
  Vcpu.spawn_program vcpu (fun _ ->
      Breakdown.charge bd Breakdown.Switch_l2_l0 (Time.of_ns 810);
      Breakdown.charge bd Breakdown.L0_handler (Time.of_ns 4890);
      Breakdown.count_exit bd);
  Simulator.run (Machine.sim machine);
  checki "bucket 1" 810 (Breakdown.time bd Breakdown.Switch_l2_l0);
  checki "total" 5700 (Breakdown.total bd);
  checki "exits" 1 (Breakdown.exits bd);
  let rows = Breakdown.rows bd in
  (* SVt-only buckets hidden when empty *)
  checki "six paper rows" 6 (List.length rows);
  let _, _, pct = List.nth rows 3 in
  checkb "percentage" true (Float.abs (pct -. (4890.0 /. 5700.0 *. 100.0)) < 0.01)

let test_breakdown_charge_advances_clock () =
  let machine, _, vcpu = make () in
  let bd = Vcpu.breakdown vcpu in
  let at = ref Time.zero in
  Vcpu.spawn_program vcpu (fun _ ->
      Breakdown.charge bd Breakdown.Transform (Time.of_us 2);
      at := Proc.now ());
  Simulator.run (Machine.sim machine);
  checki "wall time spent" (Time.of_us 2) !at

let test_breakdown_reset () =
  let machine, _, vcpu = make () in
  let bd = Vcpu.breakdown vcpu in
  Vcpu.spawn_program vcpu (fun _ ->
      Breakdown.count_exit bd;
      Breakdown.charge bd Breakdown.L1_handler (Time.of_ns 100);
      Breakdown.reset bd);
  Simulator.run (Machine.sim machine);
  checki "reset clears the bucket" 0 (Breakdown.time bd Breakdown.L1_handler);
  checki "reset clears the exit count" 0 (Breakdown.exits bd)

(* --- Semantics ------------------------------------------------------------------ *)

let test_semantics_cpuid_reply () =
  let machine, _, vcpu = make () in
  ignore machine;
  let reply = ref None in
  Semantics.apply vcpu (Exit.Emulate_cpuid { leaf = 0; subleaf = 0; reply });
  match !reply with
  | Some r -> check64 "vendor ebx" 0x756E6547L r.Svt_arch.Cpuid_db.ebx
  | None -> Alcotest.fail "reply expected"

let test_semantics_msr_roundtrip () =
  let _, _, vcpu = make () in
  Semantics.apply vcpu (Exit.Wrmsr { msr = Svt_arch.Msr.Ia32_efer; value = 0xD01L });
  let reply = ref None in
  Semantics.apply vcpu (Exit.Rdmsr { msr = Svt_arch.Msr.Ia32_efer; reply });
  checkb "read back" true (!reply = Some 0xD01L)

let test_semantics_tsc_deadline_arms_lapic () =
  let machine, _, vcpu = make () in
  Semantics.apply vcpu
    (Exit.Wrmsr
       { msr = Svt_arch.Msr.Ia32_tsc_deadline;
         value = Semantics.tsc_of_time (Time.of_us 90) });
  checkb "not yet fired" false (Lapic.has_pending (Vcpu.lapic vcpu));
  Simulator.run (Machine.sim machine);
  checkb "fired" true (Lapic.has_pending (Vcpu.lapic vcpu));
  checki "at the deadline" (Time.of_us 90) (Machine.now machine)

let test_semantics_rdmsr_tsc_is_time () =
  let machine, _, vcpu = make () in
  let got = ref None in
  Vcpu.spawn_program vcpu (fun v ->
      Proc.delay (Time.of_us 5);
      let reply = ref None in
      Semantics.apply v (Exit.Rdmsr { msr = Svt_arch.Msr.Ia32_tsc; reply });
      got := !reply);
  Simulator.run (Machine.sim machine);
  checkb "tsc == ns" true (!got = Some (Int64.of_int (Time.of_us 5)))

let test_semantics_eoi () =
  let _, _, vcpu = make () in
  Lapic.raise_vector (Vcpu.lapic vcpu) 0x70;
  ignore (Lapic.ack (Vcpu.lapic vcpu));
  Semantics.apply vcpu Exit.Eoi;
  checkb "isr cleared" false (Lapic.in_service (Vcpu.lapic vcpu) 0x70)

(* No port-I/O device or hypercall service is modelled. *)
let test_semantics_pio_and_vmcall () =
  let _, _, vcpu = make () in
  let reply = ref None in
  Semantics.apply vcpu (Exit.Io_write { port = 0x3F8; value = 55L; size = 1 });
  Semantics.apply vcpu (Exit.Io_read { port = 0x3F8; size = 1; reply });
  checkb "pio read answers 0" true (!reply = Some 0L);
  let reply = ref (Some 1L) in
  Semantics.apply vcpu (Exit.Vmcall { nr = 42; arg = 9L; reply });
  checkb "vmcall gets no reply" true (!reply = None)

(* --- L1 scripts --------------------------------------------------------------- *)

(* The handler's shape, read from the profile: its two work slices add
   up to the profile's pure work, it takes the profile's aux traps (six
   more without VMCS shadowing), and those alternate vmread/vmwrite. *)
let test_l1_script_default_shape () =
  let cm = Svt_arch.Cost_model.paper_machine in
  let s = L1_script.create cm in
  let unshadowed = L1_script.create ~shadow:Svt_vmcs.Shadow.no_shadowing cm in
  let work profile v = Svt_hyp.Cost.total cm profile 0 v in
  List.iter
    (fun r ->
      let profile = Svt_arch.Cost_model.profile cm r in
      let name = Exit_reason.name r in
      checki (name ^ ": head is half the pure work") (profile.l1_pure / 2)
        (work profile L1_script.head);
      checki (name ^ ": head + tail is the pure work") profile.l1_pure
        (work profile L1_script.head + work profile L1_script.tail);
      checki (name ^ ": aux traps") profile.l1_aux_exits (L1_script.aux_count s r);
      checki (name ^ ": unshadowed aux traps") (profile.l1_aux_exits + 6)
        (L1_script.aux_count unshadowed r))
    Exit_reason.all;
  checki "cpuid: one aux" 1 (L1_script.aux_count s Exit_reason.Cpuid);
  checki "msr write: six aux" 6 (L1_script.aux_count s Exit_reason.Msr_write);
  let cpuid = Svt_arch.Cost_model.profile cm Exit_reason.Cpuid in
  checki "cpuid pure work" 900
    (work cpuid L1_script.head + work cpuid L1_script.tail);
  List.iteri
    (fun i r ->
      checkb (Printf.sprintf "aux %d" i) true (L1_script.aux_reason i = r))
    Exit_reason.[ Vmread; Vmwrite; Vmread; Vmwrite; Vmread ]

let test_l1_script_reflection_policy () =
  checkb "cpuid reflects" true (L1_script.reflects Exit_reason.Cpuid);
  checkb "external interrupts reflect (L1's devices)" true
    (L1_script.reflects Exit_reason.External_interrupt);
  checkb "vmread handled by L0" false (L1_script.reflects Exit_reason.Vmread);
  checkb "vmresume handled by L0" false (L1_script.reflects Exit_reason.Vmresume)

let () =
  Alcotest.run "svt_hyp"
    [
      ("machine", [ Alcotest.test_case "topology" `Quick test_machine_topology ]);
      ( "vm",
        [
          Alcotest.test_case "mmio dispatch" `Quick test_vm_mmio_dispatch;
          Alcotest.test_case "mmio dispatch among many regions" `Quick
            test_vm_mmio_dispatch_many_regions;
        ] );
      ( "vcpu",
        [
          Alcotest.test_case "compute advances time" `Quick
            test_vcpu_compute_advances_time;
          Alcotest.test_case "compute interrupted by irq" `Quick
            test_vcpu_compute_interrupted_by_irq;
          Alcotest.test_case "hlt wakes on irq" `Quick test_vcpu_hlt_wakes_on_irq;
          Alcotest.test_case "host events at boundaries" `Quick
            test_vcpu_host_events_run_at_boundaries;
          Alcotest.test_case "unwired trap fails loudly" `Quick
            test_vcpu_unwired_trap_fails;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "charge and rows" `Quick test_breakdown_charge_and_rows;
          Alcotest.test_case "charge advances clock" `Quick
            test_breakdown_charge_advances_clock;
          Alcotest.test_case "reset" `Quick test_breakdown_reset;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "cpuid reply" `Quick test_semantics_cpuid_reply;
          Alcotest.test_case "msr round trip" `Quick test_semantics_msr_roundtrip;
          Alcotest.test_case "tsc deadline arms lapic" `Quick
            test_semantics_tsc_deadline_arms_lapic;
          Alcotest.test_case "rdmsr tsc is virtual time" `Quick
            test_semantics_rdmsr_tsc_is_time;
          Alcotest.test_case "eoi" `Quick test_semantics_eoi;
          Alcotest.test_case "pio and vmcall without devices" `Quick
            test_semantics_pio_and_vmcall;
        ] );
      ( "l1-script",
        [
          Alcotest.test_case "default shape" `Quick test_l1_script_default_shape;
          Alcotest.test_case "reflection policy" `Quick test_l1_script_reflection_policy;
        ] );
    ]
