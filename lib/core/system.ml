(* Top-level wiring: build the whole virtualization stack for a chosen run
   mode and guest placement, and connect devices so that workloads see the
   exact exit traffic of the paper's setups (Table 4).

   Levels:
   - [L0_native]  — the workload runs on bare metal (Figure 6's "L0" bar);
   - [L1_leaf]    — a single-level guest of L0 ("L1" bar);
   - [L2_nested]  — the nested guest, under Baseline / SW SVt / HW SVt.

   The guest-under-test vCPUs are pinned to distinct cores; under SW SVt
   each vCPU's SVt-thread occupies the SMT sibling of its core (§5.2).

   Construction goes through a validated [Config]: [Config.make] collects
   the knobs, [Config.validate] rejects stacks that cannot be wired
   soundly (most importantly an SVt mode on a machine without the SMT
   contexts its µ-registers need — the class of bug where a guest silently
   ran with unprogrammed SVt fields), and [of_config] builds the system.
   The fault plan (and its seed) also live in the config, so a faulty run
   is just another configuration. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Machine = Svt_hyp.Machine
module Vm = Svt_hyp.Vm
module Vcpu = Svt_hyp.Vcpu
module Exit = Svt_hyp.Exit
module Lapic = Svt_interrupt.Lapic
module Cpuid_db = Svt_arch.Cpuid_db
module Exit_reason = Svt_arch.Exit_reason
module Injector = Svt_fault.Injector
module Fault_kind = Svt_fault.Kind
module Fault_outcome = Svt_fault.Outcome

type level = L0_native | L1_leaf | L2_nested

let level_name = function
  | L0_native -> "L0"
  | L1_leaf -> "L1"
  | L2_nested -> "L2"

(* Guest interrupt vectors used by the device wiring. *)
let net_vector = 0x51
let blk_vector = 0x52
let l1_nic_vector = 0x31
let spurious_vector = 0xFF

module Config = struct
  type t = {
    arch : Svt_arch.Backend.kind;
    mode : Mode.t;
    level : level;
    n_vcpus : int;
    machine : Machine.config;
    shadow : Svt_vmcs.Shadow.t;
    multiplex_contexts : bool;
    faults : Svt_fault.Plan.t;
    fault_seed : int64;
    max_sim_events : int option;
  }

  type error =
    | Invalid_vcpus of int
    | Invalid_max_sim_events of int
    | Insufficient_cores of {
        n_vcpus : int;
        cores : int;
        required_threads : int;
        available_threads : int;
      }
    | Svt_context_unprogrammable of { mode : Mode.t; smt_per_core : int }
    | Sw_svt_needs_smt_sibling of { smt_per_core : int }
    | Dedicated_sibling_needs_smt of { smt_per_core : int }
    | Ooh_needs_guest_level of { level : level }
    | Hw_svt_needs_shadow_vmcs of { arch : Svt_arch.Backend.kind }

  let pp_error ppf = function
    | Invalid_vcpus n -> Fmt.pf ppf "n_vcpus = %d (need at least 1)" n
    | Invalid_max_sim_events n ->
        Fmt.pf ppf "max_sim_events = %d (need at least 1)" n
    | Insufficient_cores { n_vcpus; cores; required_threads; available_threads }
      ->
        Fmt.pf ppf
          "%d vCPUs need %d distinct cores (machine has %d) and, with \
           SVt-threads under the chosen policy, %d hardware threads \
           (machine has %d)"
          n_vcpus n_vcpus cores required_threads available_threads
    | Svt_context_unprogrammable { mode; smt_per_core } ->
        Fmt.pf ppf
          "%s needs at least 2 hardware contexts per core to program the \
           SVt µ-registers, but smt_per_core = %d"
          (Mode.name mode) smt_per_core
    | Sw_svt_needs_smt_sibling { smt_per_core } ->
        Fmt.pf ppf
          "SW SVt with smt-sibling placement needs an SMT sibling, but \
           smt_per_core = %d"
          smt_per_core
    | Dedicated_sibling_needs_smt { smt_per_core } ->
        Fmt.pf ppf
          "the dedicated-sibling SVt policy reserves an SMT sibling per \
           vCPU, but smt_per_core = %d leaves none to reserve"
          smt_per_core
    | Ooh_needs_guest_level { level } ->
        Fmt.pf ppf
          "OoH delegates exits from a guest to its guest hypervisor, so it \
           needs a guest level (L1 or L2), but level = %s"
          (level_name level)
    | Hw_svt_needs_shadow_vmcs { arch } ->
        Fmt.pf ppf
          "HW SVt's per-level hardware contexts extend the VMCS-caching \
           machinery, but the %s backend keeps nested state in \
           memory-backed system registers with no shadow VMCS to \
           multiplex (use baseline, sw-svt or ooh)"
          (Svt_arch.Backend.display_name arch)

  (* [arch] wins over the machine's when both are given: the cost table
     follows the backend ([Machine.retarget]). An ISA without a shadow
     VMCS has nothing for the shadowing policy to absorb, so the shadow
     collapses to [no_shadowing] — the source of the extra auxiliary
     traps that make ARM's baseline nested exits dearer (§7). *)
  let make ?arch ?(machine = Machine.paper_config) ?(n_vcpus = 1)
      ?(shadow = Svt_vmcs.Shadow.hardware_shadowing_enabled)
      ?(multiplex_contexts = false) ?(faults = Svt_fault.Plan.empty)
      ?(fault_seed = 0xFA17L) ?max_sim_events ~mode ~level () =
    let machine =
      match arch with
      | None -> machine
      | Some k when Svt_arch.Backend.equal k machine.Machine.arch -> machine
      | Some k -> Machine.retarget k machine
    in
    let arch = machine.Machine.arch in
    let shadow =
      if Svt_arch.Backend.has_shadow_vmcs arch then shadow
      else Svt_vmcs.Shadow.no_shadowing
    in
    { arch; mode; level; n_vcpus; machine; shadow; multiplex_contexts;
      faults; fault_seed; max_sim_events }

  (* Hardware threads the SVt-threads of this stack occupy, on top of the
     one thread per vCPU: the paper's dedicated sibling reserves one per
     vCPU. Only SW SVt runs SVt-threads at all. *)
  let svt_thread_demand t =
    match t.mode with
    | Mode.Sw_svt _ -> t.n_vcpus
    | Mode.Baseline | Mode.Hw_svt | Mode.Hw_full_nesting | Mode.Ooh -> 0

  (* Reject stacks that cannot be wired soundly; normalize the ones that
     can. The SVt-context rules are the load-bearing part: without them a
     guest would run with unprogrammed µ-registers (SVt fields at the
     invalid sentinel) and silently measure the wrong protocol. *)
  let validate t =
    let errors = ref [] in
    let err e = errors := e :: !errors in
    if t.n_vcpus < 1 then err (Invalid_vcpus t.n_vcpus);
    (match t.max_sim_events with
    | Some n when n < 1 -> err (Invalid_max_sim_events n)
    | _ -> ());
    let cores = t.machine.Machine.sockets * t.machine.Machine.cores_per_socket in
    let smt = t.machine.Machine.smt_per_core in
    let available_threads = cores * smt in
    let required_threads = t.n_vcpus + svt_thread_demand t in
    (* Topology-aware capacity check: every vCPU needs its own core (the
       pinning invariant), and vCPUs plus SVt-threads together must fit
       the machine's hardware threads. *)
    if t.n_vcpus >= 1
       && (t.n_vcpus > cores || required_threads > available_threads)
    then
      err
        (Insufficient_cores
           { n_vcpus = t.n_vcpus; cores; required_threads; available_threads });
    (* Arch×mode combinations that do not exist: HW SVt's contexts
       multiplex shadow-VMCS state, so a backend without one (ARM NV/VHE)
       has no HW SVt design point at all. *)
    (match t.mode with
    | Mode.Hw_svt when not (Svt_arch.Backend.has_hw_svt t.arch) ->
        err (Hw_svt_needs_shadow_vmcs { arch = t.arch })
    | _ -> ());
    (match (t.mode, t.level) with
    | Mode.Hw_svt, (L1_leaf | L2_nested) when smt < 2 ->
        err (Svt_context_unprogrammable { mode = t.mode; smt_per_core = smt })
    | Mode.Sw_svt { placement = Mode.Smt_sibling; _ }, _ when smt < 2 ->
        err (Sw_svt_needs_smt_sibling { smt_per_core = smt })
    | _ -> ());
    (* The paper's dedicated sibling reserves an SMT sibling per SW SVt
       vCPU, whatever the placement. *)
    (match t.mode with
    | Mode.Sw_svt _ when smt < 2 ->
        err (Dedicated_sibling_needs_smt { smt_per_core = smt })
    | _ -> ());
    (* OoH rule, mirroring [Svt_context_unprogrammable]: delegation only
       makes sense when there is a guest hypervisor to delegate to. *)
    (match (t.mode, t.level) with
    | Mode.Ooh, L0_native -> err (Ooh_needs_guest_level { level = t.level })
    | _ -> ());
    match List.rev !errors with
    | [] ->
        (* The proposed SVt core provides one hardware context per
           virtualization level (the §4 worked example needs three);
           beyond the config's SMT width the hypervisor multiplexes
           levels on a shared context (§3.1), which [Nested] charges
           for. The default HW SVt machine is the proposal, so it gets
           the third context. *)
        let t =
          match (t.mode, t.level) with
          | Mode.Hw_svt, L2_nested
            when smt < 3 && not t.multiplex_contexts ->
              { t with machine = { t.machine with Machine.smt_per_core = 3 } }
          | _ -> t
        in
        Ok t
    | es -> Error es
end

exception Invalid_config of Config.error list

let () =
  Printexc.register_printer (function
    | Invalid_config es ->
        Some
          (Fmt.str "System.Invalid_config: %a"
             Fmt.(list ~sep:(any "; ") Config.pp_error)
             es)
    | _ -> None)

type t = {
  machine : Machine.t;
  mode : Mode.t;
  level : level;
  guest_vm : Vm.t; (* the VM the workload runs in (L1's VM when L1_leaf) *)
  vcpus : Vcpu.t array;
  nested : Nested.t array; (* per vCPU; empty unless L2_nested *)
  injector : Injector.t;
}

let native_op_cost (_cost : Svt_arch.Cost_model.t) (info : Exit.info) =
  (* the instruction's execution time is charged by the Guest API itself;
     natively there is nothing else to pay *)
  match info.reason with
  | Exit_reason.Cpuid -> Time.zero
  | _ -> Time.of_ns 40

(* Native execution: privileged operations execute directly. *)
let wire_native cost vcpu =
  Vcpu.set_privileged vcpu (fun v info ->
      Svt_hyp.Breakdown.charge (Vcpu.breakdown v) Svt_hyp.Breakdown.L2_guest
        (native_op_cost cost info);
      Svt_hyp.Semantics.apply v info.action);
  Vcpu.set_deliver_guest_irq vcpu (fun v vector ->
      (match Vcpu.isr_handler v vector with Some f -> f () | None -> ());
      Lapic.eoi (Vcpu.lapic v));
  Vcpu.set_deliver_host_event vcpu (fun _ ~vector:_ ~work -> work ())

(* Single-level guest: every privileged op is one L1→L0 exit. *)
let wire_l1_leaf cost mode vcpu =
  Vcpu.set_privileged vcpu (fun v info -> Single_level.handle ~cost ~mode v info);
  Vcpu.set_deliver_guest_irq vcpu (fun v vector ->
      Single_level.handle ~cost ~mode v
        (Exit.of_action (Exit.External_interrupt { vector }));
      (match Vcpu.isr_handler v vector with Some f -> f () | None -> ());
      Single_level.handle ~cost ~mode v (Exit.of_action Exit.Eoi));
  Vcpu.set_deliver_host_event vcpu (fun _ ~vector:_ ~work -> work ())

(* Nested guest: the full reflection protocol of [Nested]. Injecting a
   vector into L2 costs L1 an interrupt-window exit on top of the
   external-interrupt reflection (the guest rarely has interrupts enabled
   at the instant of injection), then the guest's EOI exits again. *)
let wire_l2 injector nested vcpu =
  Vcpu.set_privileged vcpu (fun _ info -> Nested.handle nested info);
  Vcpu.set_deliver_guest_irq vcpu (fun v vector ->
      (* Spurious-interrupt fault: an extra, unsolicited vector arrives
         ahead of the real one. The guest's ISR table has no handler for
         it, so it costs a full injection episode and an EOI. *)
      if Injector.is_active injector && Injector.roll injector Fault_kind.Spurious_irq
      then begin
        Nested.handle nested
          (Exit.of_action (Exit.External_interrupt { vector = spurious_vector }));
        Nested.handle nested (Exit.of_action Exit.Interrupt_window);
        Nested.handle nested (Exit.of_action Exit.Eoi)
      end;
      (* Lost-interrupt fault: the vector is dropped in delivery and only
         re-raised when the guest's own recovery timeout notices. *)
      if Injector.is_active injector && Injector.roll injector Fault_kind.Drop_irq
      then begin
        Proc.delay (Time.of_ns (Fault_kind.param_ns Fault_kind.Drop_irq));
        Injector.record injector Fault_outcome.Irq_recovered
      end;
      (* If the vCPU is at a VM-entry boundary (it just took an exit for
         the event that raised this vector), L1 injects on that entry for
         free; otherwise injection forces a fresh external-interrupt exit
         plus an interrupt-window exit. Network vectors always come from
         L1's vhost worker on another CPU (an IPI into a running guest),
         so they never hit the boundary. *)
      (if vector = net_vector || not (Nested.at_entry_boundary nested) then
         let probe = Machine.probe (Vcpu.machine v) in
         Svt_obs.Probe.wrap probe Svt_obs.Span.Irq_inject ~vcpu:(Vcpu.index v)
           ~level:2 ~core:(Vcpu.core_id v) ~ctx:(Vcpu.hw_ctx v)
           ~tags:(fun () -> [ ("vector", string_of_int vector) ])
           (fun () ->
             Nested.handle nested
               (Exit.of_action (Exit.External_interrupt { vector }));
             Nested.handle nested (Exit.of_action Exit.Interrupt_window)));
      (match Vcpu.isr_handler v vector with Some f -> f () | None -> ());
      Nested.handle nested (Exit.of_action Exit.Eoi));
  Vcpu.set_deliver_host_event vcpu (fun _ ~vector ~work ->
      Nested.interrupt_for_l1 nested ~vector ~work)

(* The CPUID views of each level, built once per process and shared by
   every stack: a [Cpuid_db.t] is read-only. *)
let host_db = Cpuid_db.host ()
let l1_db = Cpuid_db.guest_view host_db ~expose_vmx:true
let l2_db = Cpuid_db.guest_view l1_db ~expose_vmx:false

let of_config (c : Config.t) =
  let c =
    match Config.validate c with
    | Ok c -> c
    | Error es -> raise (Invalid_config es)
  in
  let { Config.arch = _; mode; level; n_vcpus; machine = config; shadow;
        multiplex_contexts = _; faults; fault_seed;
        max_sim_events } = c in
  let machine = Machine.create ~config () in
  (* Fuel budget: installed on the fresh simulator so every entry point
     that drives it (System.run, a workload's own run loop) is bounded.
     Without one the simulator keeps its own runaway guard. *)
  Option.iter
    (fun max_events -> Simulator.set_budget ~max_events (Machine.sim machine))
    max_sim_events;
  let injector = Injector.create ~seed:fault_seed faults in
  (if Injector.is_active injector then
     let probe = Machine.probe machine in
     Injector.set_observer injector (fun o ->
         if Svt_obs.Probe.is_on probe then
           Svt_obs.Probe.span probe Svt_obs.Span.Fault ~vcpu:(-1) ~level:0
             ~tags:[ ("outcome", Fault_outcome.name o) ]
             ~start:(Svt_obs.Probe.now probe) ()));
  let cost = Machine.cost machine in
  let mb = 1 lsl 20 in
  (* L1's VM is built first when there is one, so it takes the first frames. *)
  let l1_vm () = Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(4 * mb) ~cpuid:l1_db in
  match level with
  | L0_native ->
      let l0_vm =
        Vm.create ~machine ~name:"l0" ~level:0 ~ram_bytes:(4 * mb) ~cpuid:host_db
      in
      let vcpus =
        Array.init n_vcpus (fun i ->
            Vcpu.create ~machine ~vm:l0_vm ~index:i ~core_id:i ~hw_ctx:0)
      in
      Array.iter (wire_native cost) vcpus;
      { machine; mode; level; guest_vm = l0_vm; vcpus; nested = [||]; injector }
  | L1_leaf ->
      let l1_vm = l1_vm () in
      let vcpus =
        Array.init n_vcpus (fun i ->
            Vcpu.create ~machine ~vm:l1_vm ~index:i ~core_id:i ~hw_ctx:0)
      in
      (* Under HW SVt a single-level guest still uses the stall/resume
         mux: L0 holds context 0, the guest context 1. Program the SVt
         µ-registers and start with the guest context fetching, as
         Nested.create does for the three-context nested case. *)
      (match mode with
      | Mode.Hw_svt ->
          Array.iter
            (fun vcpu ->
              let core = Vcpu.core vcpu in
              Svt_arch.Smt_core.load_svt_fields core ~visor:0 ~vm:1;
              Vcpu.set_hw_ctx vcpu 1;
              Svt_arch.Smt_core.vm_resume core)
            vcpus
      | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh -> ());
      Array.iter (wire_l1_leaf cost mode) vcpus;
      { machine; mode; level; guest_vm = l1_vm; vcpus; nested = [||]; injector }
  | L2_nested ->
      let l1_vm = l1_vm () in
      let script = Svt_hyp.L1_script.create ~shadow cost in
      let l2_vm =
        Vm.create ~machine ~name:"l2" ~level:2 ~ram_bytes:(4 * mb) ~cpuid:l2_db
      in
      let vcpus =
        Array.init n_vcpus (fun i ->
            Vcpu.create ~machine ~vm:l2_vm ~index:i ~core_id:i ~hw_ctx:0)
      in
      let nested =
        Array.map
          (fun vcpu ->
            Nested.create ~injector ~machine ~mode ~vcpu ~l1_vm ~script ())
          vcpus
      in
      Array.iteri (fun i vcpu -> wire_l2 injector nested.(i) vcpu) vcpus;
      Array.iter Nested.start nested;
      { machine; mode; level; guest_vm = l2_vm; vcpus; nested; injector }

let probe t = Machine.probe t.machine
let sim t = Machine.sim t.machine
let cost t = Machine.cost t.machine
let guest_vm t = t.guest_vm
let vcpu t i = t.vcpus.(i)
let vcpu0 t = t.vcpus.(0)
let n_vcpus t = Array.length t.vcpus
let nested_path t i = t.nested.(i)
let metrics t = t.machine.Machine.metrics
let injector t = t.injector

let run ?until t =
  match until with
  | Some limit -> Simulator.run ~until:limit (sim t)
  | None -> Simulator.run (sim t)

(* ---- per-quantum stepping (the lib/sched host drives this) ------------- *)

let next_event_at t = Simulator.next_event_time (sim t)

(* Advance this stack's local clock by one scheduling slice: process every
   event up to [until] and report whether any work actually ran. A stack
   whose next event lies beyond [until] is asleep for the whole slice —
   its clock is left alone (the simulator clock only moves when events
   run or the queue drains), so a host scheduler can skip it without
   perturbing the simulation. *)
let run_slice t ~until =
  match next_event_at t with
  | Some next when Time.(next <= until) ->
      Simulator.run ~until (sim t);
      `Ran
  | Some _ | None -> `Idle

(* ---- devices ----------------------------------------------------------- *)

(* Cost one L1-level exit inside a backend process: L1's vhost threads pay
   single-level trap costs when they poke their own L0-provided devices.
   (Backends run on cores without SVt, so this is mode-independent.) *)
let charge_l1_exit t reason =
  Proc.delay (Single_level.episode_cost ~cost:(cost t) ~mode:Mode.Baseline reason)

(* Attach a virtio-net device to the guest-under-test and connect it to a
   separate client machine over the 10 GbE fabric. Returns the device and
   the client-side endpoint. *)
let attach_net ?(vcpu_index = 0) t =
  let fabric = Svt_virtio.Fabric.create (sim t) ~cost:(cost t) in
  let net =
    Svt_virtio.Virtio_net.create ~machine:t.machine ~vm:t.guest_vm
      ~name:(Printf.sprintf "net%d" vcpu_index)
  in
  let vcpu = vcpu t vcpu_index in
  (match t.level with
  | L2_nested ->
      (* TX: L2's queue is served by L1's vhost worker, which forwards
         through L1's own virtio-net — one more (single-level) kick. *)
      Svt_virtio.Virtio_net.set_tx_sink net (fun pkt ->
          charge_l1_exit t Exit_reason.Ept_misconfig;
          Proc.delay (cost t).vhost_kick;
          Svt_virtio.Fabric.send fabric ~from:(Svt_virtio.Fabric.endpoint_a fabric) pkt);
      (* RX: the wire delivers to L0's vhost, which interrupts L1 (a host
         event for the L2 vCPU); L1's handler feeds L2's RX ring and
         injects the guest vector. *)
      let rx_mail = Simulator.Mailbox.create (sim t) in
      Svt_virtio.Fabric.on_deliver (Svt_virtio.Fabric.endpoint_a fabric)
        (fun pkt -> Simulator.Mailbox.send rx_mail pkt);
      Simulator.spawn (sim t) ~name:"l0-vhost-rx" (fun () ->
          let rec loop () =
            let first = Simulator.Mailbox.recv rx_mail in
            Proc.delay (cost t).vhost_wake;
            Proc.delay (cost t).vhost_kick;
            (* NAPI-style coalescing: everything queued by now reaches the
               guest hypervisor as a single interrupt *)
            let batch = ref [ first ] in
            let rec gather () =
              match Simulator.Mailbox.try_recv rx_mail with
              | Some p ->
                  batch := p :: !batch;
                  gather ()
              | None -> ()
            in
            gather ();
            List.iter (fun _ -> Proc.delay (cost t).virtio_queue_op) !batch;
            let pkts = List.rev !batch in
            Vcpu.enqueue_host_event vcpu ~vector:l1_nic_vector (fun () ->
                List.iter (Svt_virtio.Virtio_net.backend_deliver net) pkts);
            loop ()
          in
          loop ());
      (* L1's vhost-net worker injects the guest vector only after its own
         scheduling latency, so the interrupt lands on a running guest
         (forcing a real exit) rather than on the entry boundary *)
      Svt_virtio.Virtio_net.set_raise_irq net (fun () ->
          ignore
            (Simulator.schedule (sim t) ~after:(cost t).vhost_wake (fun () ->
                 Lapic.raise_vector (Vcpu.lapic vcpu) net_vector)))
  | L1_leaf | L0_native ->
      (* The device backend is L0's own vhost; TX goes straight to the
         fabric and RX interrupts the guest directly. *)
      Svt_virtio.Virtio_net.set_tx_sink net (fun pkt ->
          Svt_virtio.Fabric.send fabric ~from:(Svt_virtio.Fabric.endpoint_a fabric) pkt);
      let rx_mail = Simulator.Mailbox.create (sim t) in
      Svt_virtio.Fabric.on_deliver (Svt_virtio.Fabric.endpoint_a fabric)
        (fun pkt -> Simulator.Mailbox.send rx_mail pkt);
      Simulator.spawn (sim t) ~name:"l0-vhost-rx" (fun () ->
          let rec loop () =
            let pkt = Simulator.Mailbox.recv rx_mail in
            Proc.delay (cost t).vhost_kick;
            Proc.delay (cost t).virtio_queue_op;
            Svt_virtio.Virtio_net.backend_deliver net pkt;
            loop ()
          in
          loop ());
      Svt_virtio.Virtio_net.set_raise_irq net (fun () ->
          Lapic.raise_vector (Vcpu.lapic vcpu) net_vector));
  Svt_virtio.Virtio_net.start_backend net;
  (net, fabric)

(* Attach a virtio-blk device. For a nested guest the backend path runs
   through L1's own virtualized disk, modeled as a fixed nested service
   penalty on top of the tmpfs latency. *)
let attach_blk t =
  let disk = Svt_virtio.Ramdisk.create ~size_mb:256 in
  let blk =
    Svt_virtio.Virtio_blk.create ~machine:t.machine ~vm:t.guest_vm ~name:"blk0" ~disk
  in
  let vcpu = vcpu0 t in
  (match t.level with
  | L2_nested ->
      (* L2's disk image is a file on L1's (virtual) disk: every request is
         served by L1's vhost-blk thread, whose own KVM interactions are
         single-level exits — accelerated by HW SVt like any other trap. *)
      let l1_exits = 21 in
      let penalty =
        Time.add (cost t).nested_disk_penalty
          (Time.scale
             (Single_level.episode_cost ~cost:(cost t) ~mode:t.mode
                Exit_reason.Ept_misconfig)
             (float_of_int l1_exits))
      in
      Svt_virtio.Virtio_blk.set_nested_penalty blk penalty
  | L1_leaf | L0_native -> ());
  Svt_virtio.Virtio_blk.set_raise_irq blk (fun () ->
      Lapic.raise_vector (Vcpu.lapic vcpu) blk_vector);
  Svt_virtio.Virtio_blk.start_backend blk;
  (blk, disk)
