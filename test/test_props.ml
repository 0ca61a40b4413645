(* Cross-cutting property tests on the protocol-critical data paths:
   channel command serialization, VMCS transform behaviour, the SMT-core
   state machine, virtqueue operation sequences, and fabric ordering. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Mode = Svt_core.Mode
module Channel = Svt_core.Channel
module Breakdown = Svt_hyp.Breakdown
module Exit_reason = Svt_arch.Exit_reason
module Smt_core = Svt_arch.Smt_core
module Vmcs = Svt_vmcs.Vmcs
module Field = Svt_vmcs.Field

let make_channel () =
  let machine = Svt_hyp.Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  ( machine,
    Channel.create ~machine ~aspace:(Svt_hyp.Vm.aspace vm) ~wait:Mode.Mwait
      ~placement:Mode.Smt_sibling
      ~core:(Svt_hyp.Machine.core machine 0)
      () )

(* These properties never fill the ring, so a backpressure result is a
   property violation in its own right. *)
let post_ok ch dir bd cmd =
  match Channel.post ch dir bd cmd with
  | Ok () -> ()
  | Error `Backpressure -> failwith "unexpected ring backpressure"

let reasons =
  [| Exit_reason.Cpuid; Exit_reason.Msr_write; Exit_reason.Ept_misconfig;
     Exit_reason.Hlt; Exit_reason.External_interrupt; Exit_reason.Eoi_induced |]

(* Serializing a command through the shared-memory ring and reading it
   back yields the same command, for arbitrary payloads. *)
let prop_channel_roundtrip =
  QCheck.Test.make ~name:"channel commands survive shared memory" ~count:100
    QCheck.(pair (int_bound 5) (array_of_size (Gen.return 16) int64))
    (fun (ri, regs) ->
      let machine, ch = make_channel () in
      let bd = Breakdown.create () in
      let ok = ref false in
      let reason = reasons.(ri) in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          post_ok ch (Channel.to_svt ch) bd
            (Channel.Vm_trap { seq = 1; reason; qual = regs.(0); regs });
          match Channel.try_recv ch (Channel.to_svt ch) bd with
          | Some (Channel.Vm_trap r) ->
              ok :=
                r.reason = reason && r.qual = regs.(0) && r.regs = regs
          | _ -> ok := false);
      Simulator.run (Svt_hyp.Machine.sim machine);
      !ok)

(* Pipelining many commands through the ring preserves order and count
   (up to the ring capacity). *)
let prop_channel_order =
  QCheck.Test.make ~name:"channel preserves fifo order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 15) (int_bound 1000))
    (fun quals ->
      let machine, ch = make_channel () in
      let bd = Breakdown.create () in
      let got = ref [] in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          List.iteri
            (fun i q ->
              post_ok ch (Channel.from_svt ch) bd
                (Channel.Vm_trap
                   { seq = i + 1; reason = Exit_reason.Cpuid;
                     qual = Int64.of_int q; regs = [||] }))
            quals;
          let rec drain () =
            match Channel.try_recv ch (Channel.from_svt ch) bd with
            | Some (Channel.Vm_trap { qual; _ }) ->
                got := Int64.to_int qual :: !got;
                drain ()
            | Some _ -> drain ()
            | None -> ()
          in
          drain ());
      Simulator.run (Svt_hyp.Machine.sim machine);
      List.rev !got = quals)

(* The SMT core never has two active contexts, whatever sequence of
   trap/resume/activate events it sees. *)
let prop_core_single_active =
  QCheck.Test.make ~name:"at most one active context" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 4))
    (fun ops ->
      let core = Smt_core.create ~id:0 ~n_contexts:3 () in
      Smt_core.load_svt_fields core ~visor:0 ~vm:1 ~nested:2;
      List.iter
        (fun op ->
          match op with
          | 0 -> Smt_core.vm_resume core
          | 1 -> Smt_core.vm_trap core
          | n -> Smt_core.activate core (n - 2))
        ops;
      let active =
        List.length
          (List.filter
             (fun i -> Smt_core.state core i = Smt_core.Active)
             [ 0; 1; 2 ])
      in
      active <= 1 && Smt_core.current core < 3)

(* The entry transform is incremental: applying it twice with no writes
   in between copies nothing the second time, and vmcs02 equals vmcs12 on
   every non-pointer, non-control field that was written. *)
let prop_transform_incremental =
  QCheck.Test.make ~name:"entry transform is incremental" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 10) (pair (int_bound 3) int64))
    (fun writes ->
      let vmcs12 = Vmcs.create ~owner_level:1 ~subject_level:2 () in
      let vmcs02 = Vmcs.create ~owner_level:0 ~subject_level:2 () in
      let l1_ept = Svt_mem.Ept.create () in
      let fields = [| Field.Guest_rip; Field.Guest_rsp; Field.Guest_cr3;
                      Field.Guest_rflags |] in
      List.iter (fun (fi, v) -> Vmcs.write vmcs12 fields.(fi) v) writes;
      let _ =
        Svt_vmcs.Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L
      in
      let second =
        Svt_vmcs.Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L
      in
      let copied_match =
        List.for_all
          (fun (fi, _) ->
            Vmcs.peek vmcs02 fields.(fi) = Vmcs.peek vmcs12 fields.(fi))
          writes
      in
      second.Svt_vmcs.Transform.fields_copied = 0 && copied_match)

(* Every virtqueue buffer posted is eventually collectable exactly once,
   and payloads survive the round trip, for arbitrary interleavings of
   post/serve operations. *)
let prop_virtqueue_conservation =
  QCheck.Test.make ~name:"virtqueue conserves buffers and payloads" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) bool)
    (fun ops ->
      let mem = Svt_mem.Phys_mem.create () in
      let alloc =
        Svt_mem.Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24)
      in
      let aspace = Svt_mem.Address_space.create ~mem ~alloc ~ram_bytes:(1 lsl 18) in
      let q = Svt_virtio.Virtqueue.create ~aspace ~size:8 in
      let buf = Svt_mem.Address_space.alloc_guest_pages aspace 1 in
      let posted = ref 0 and served = ref 0 and collected = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i post ->
          if post then (
            Svt_mem.Address_space.write_u32 aspace buf i;
            match
              Svt_virtio.Virtqueue.push_avail q ~addr:buf ~len:4
                ~device_writable:false
            with
            | Some _ -> incr posted
            | None -> () (* ring full is a legal outcome *))
          else
            match Svt_virtio.Virtqueue.pop_avail q with
            | Some (id, addr, len, _) ->
                if Svt_mem.Addr.Gpa.to_int addr <> Svt_mem.Addr.Gpa.to_int buf
                then ok := false;
                Svt_virtio.Virtqueue.push_used q ~id ~len;
                incr served;
                (match Svt_virtio.Virtqueue.pop_used q with
                | Some _ -> incr collected
                | None -> ok := false)
            | None -> ())
        ops;
      !ok && !served <= !posted && !collected = !served)

(* Fabric deliveries arrive in send order with non-decreasing times. *)
let prop_fabric_ordering =
  QCheck.Test.make ~name:"fabric preserves packet order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 2000))
    (fun sizes ->
      let sim = Simulator.create () in
      let f =
        Svt_virtio.Fabric.create sim ~cost:Svt_arch.Cost_model.paper_machine
          ~name_a:"a" ~name_b:"b"
      in
      let got = ref [] in
      Svt_virtio.Fabric.on_deliver (Svt_virtio.Fabric.endpoint_b f) (fun pkt ->
          got := Bytes.length pkt :: !got);
      List.iter
        (fun n ->
          Svt_virtio.Fabric.send f ~from:(Svt_virtio.Fabric.endpoint_a f)
            (Bytes.make n 'x'))
        sizes;
      Simulator.run sim;
      List.rev !got = sizes)

(* Guest cpuid views only ever remove feature bits, never invent them
   (except the architected hypervisor-present bit). *)
let prop_cpuid_view_monotone =
  QCheck.Test.make ~name:"guest cpuid views only mask features" ~count:50
    QCheck.bool
    (fun expose_vmx ->
      let host = Svt_arch.Cpuid_db.host () in
      let view = Svt_arch.Cpuid_db.guest_view host ~expose_vmx in
      let h = Svt_arch.Cpuid_db.query host ~leaf:1 ~subleaf:0 in
      let g = Svt_arch.Cpuid_db.query view ~leaf:1 ~subleaf:0 in
      let hv = Int64.shift_left 1L 31 (* the hypervisor-present bit *) in
      let added =
        Int64.logand (Int64.logand g.Svt_arch.Cpuid_db.ecx (Int64.lognot h.Svt_arch.Cpuid_db.ecx))
          (Int64.lognot hv)
      in
      added = 0L && g.Svt_arch.Cpuid_db.edx = h.Svt_arch.Cpuid_db.edx)

let () =
  Alcotest.run "properties"
    [
      ( "protocol-data-paths",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_channel_roundtrip;
            prop_channel_order;
            prop_core_single_active;
            prop_transform_incremental;
            prop_virtqueue_conservation;
            prop_fabric_ordering;
            prop_cpuid_view_monotone;
          ] );
    ]
