(* Tests for the virtio substrate: split virtqueues in real guest memory,
   the network device + fabric, the ramdisk and the block device. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Addr = Svt_mem.Addr
module Aspace = Svt_mem.Address_space
module Virtqueue = Svt_virtio.Virtqueue
module Fabric = Svt_virtio.Fabric
module Ramdisk = Svt_virtio.Ramdisk
module Net = Svt_virtio.Virtio_net
module Blk = Svt_virtio.Virtio_blk
module Machine = Svt_hyp.Machine
module Vm = Svt_hyp.Vm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make_aspace () =
  let mem = Svt_mem.Phys_mem.create () in
  let alloc = Svt_mem.Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 26) in
  Aspace.create ~mem ~alloc ~ram_bytes:(1 lsl 20)

(* --- Virtqueue ----------------------------------------------------------- *)

let test_vq_power_of_two () =
  let aspace = make_aspace () in
  Alcotest.check_raises "size check"
    (Invalid_argument "Virtqueue.create: size must be a power of two")
    (fun () -> ignore (Virtqueue.create ~aspace ~size:24))

let test_vq_roundtrip_through_memory () =
  let aspace = make_aspace () in
  let q = Virtqueue.create ~aspace ~size:8 in
  let buf = Aspace.alloc_guest_pages aspace 1 in
  Aspace.write_bytes aspace buf (Bytes.of_string "payload!");
  (* driver: post *)
  (match Virtqueue.push_avail q ~addr:buf ~len:8 ~device_writable:false with
  | Some _ -> ()
  | None -> Alcotest.fail "push should succeed");
  checki "device sees it" 1 (Virtqueue.avail_pending q);
  (* device: pop, read payload, complete *)
  (match Virtqueue.pop_avail q with
  | Some (id, addr, len, writable) ->
      checki "len" 8 len;
      checkb "read-only for device" false writable;
      checkb "payload travels through guest memory" true
        (Aspace.read_bytes aspace addr len = Bytes.of_string "payload!");
      Virtqueue.push_used q ~id ~len
  | None -> Alcotest.fail "pop should succeed");
  (* driver: collect *)
  match Virtqueue.pop_used q with
  | Some (_, len) -> checki "completion len" 8 len
  | None -> Alcotest.fail "completion expected"

let test_vq_fifo_order () =
  let aspace = make_aspace () in
  let q = Virtqueue.create ~aspace ~size:8 in
  let bufs =
    List.init 3 (fun i ->
        let b = Aspace.alloc_guest_pages aspace 1 in
        Aspace.write_bytes aspace b (Bytes.make 1 (Char.chr (100 + i)));
        b)
  in
  List.iter
    (fun b -> ignore (Virtqueue.push_avail q ~addr:b ~len:1 ~device_writable:false))
    bufs;
  let order = ref [] in
  let rec drain () =
    match Virtqueue.pop_avail q with
    | Some (id, addr, _, _) ->
        order := Aspace.read_u8 aspace addr :: !order;
        Virtqueue.push_used q ~id ~len:1;
        drain ()
    | None -> ()
  in
  drain ();
  checkb "fifo" true (List.rev !order = [ 100; 101; 102 ])

let test_vq_ring_full () =
  let aspace = make_aspace () in
  let q = Virtqueue.create ~aspace ~size:4 in
  let buf = Aspace.alloc_guest_pages aspace 1 in
  for _ = 1 to 4 do
    ignore (Virtqueue.push_avail q ~addr:buf ~len:1 ~device_writable:false)
  done;
  checkb "full ring rejects" true
    (Virtqueue.push_avail q ~addr:buf ~len:1 ~device_writable:false = None)

let test_vq_descriptor_recycling () =
  let aspace = make_aspace () in
  let q = Virtqueue.create ~aspace ~size:4 in
  let buf = Aspace.alloc_guest_pages aspace 1 in
  (* many more operations than the ring size: descriptors must recycle *)
  for _ = 1 to 40 do
    (match Virtqueue.push_avail q ~addr:buf ~len:1 ~device_writable:false with
    | Some id -> (
        match Virtqueue.pop_avail q with
        | Some (id', _, _, _) ->
            checki "same descriptor" id id';
            Virtqueue.push_used q ~id ~len:1
        | None -> Alcotest.fail "pop")
    | None -> Alcotest.fail "push");
    ignore (Virtqueue.pop_used q)
  done;
  checki "empty at the end" 0 (Virtqueue.avail_pending q)

(* Free descriptors are a stack: a fresh queue hands out 0, 1, 2, ...,
   and the descriptor completed last is the next one taken. *)
let test_vq_freed_reused_first () =
  let aspace = make_aspace () in
  let q = Virtqueue.create ~aspace ~size:8 in
  let buf = Aspace.alloc_guest_pages aspace 1 in
  let push () =
    match Virtqueue.push_avail q ~addr:buf ~len:1 ~device_writable:false with
    | Some id -> id
    | None -> Alcotest.fail "push"
  in
  let fresh = List.init 3 (fun _ -> push ()) in
  checkb "fresh order" true (fresh = [ 0; 1; 2 ]);
  ignore (Virtqueue.pop_avail q);
  ignore (Virtqueue.pop_avail q);
  Virtqueue.push_used q ~id:1 ~len:1;
  checkb "descriptor 1 completes" true (Virtqueue.pop_used q = Some (1, 1));
  checkb "next_free is the freed one" true (Virtqueue.next_free q = Some 1);
  checki "freed descriptor taken next" 1 (push ());
  checki "then the fresh ones" 3 (push ())

(* --- Fabric --------------------------------------------------------------- *)

let make_fabric sim =
  Fabric.create sim ~cost:Svt_arch.Cost_model.paper_machine ~name_a:"nic"
    ~name_b:"client"

let test_fabric_delivery_latency () =
  let sim = Simulator.create () in
  let f = make_fabric sim in
  let arrived = ref Time.zero in
  Fabric.on_deliver (Fabric.endpoint_b f) (fun _ -> arrived := Simulator.now sim);
  Fabric.send f ~from:(Fabric.endpoint_a f) "x";
  Simulator.run sim;
  (* one-way = serialization (~tiny) + wire latency (5.5us) *)
  checkb "about wire latency" true
    (!arrived > Time.of_us 5 && !arrived < Time.of_us 7)

let test_fabric_serialization_queues () =
  let sim = Simulator.create () in
  let f = make_fabric sim in
  let times = ref [] in
  Fabric.on_deliver (Fabric.endpoint_b f) (fun _ ->
      times := Simulator.now sim :: !times);
  (* two 16 KB packets sent back to back must be spaced by serialization *)
  Fabric.send f ~from:(Fabric.endpoint_a f) (String.make 16384 'x');
  Fabric.send f ~from:(Fabric.endpoint_a f) (String.make 16384 'y');
  Simulator.run sim;
  match List.rev !times with
  | [ t1; t2 ] ->
      let gap = Time.diff t2 t1 in
      checkb "spaced by wire serialization (>=13us)" true (gap >= Time.of_us 13)
  | _ -> Alcotest.fail "two deliveries expected"

let test_fabric_counts () =
  let sim = Simulator.create () in
  let f = make_fabric sim in
  let got = ref [] in
  Fabric.on_deliver (Fabric.endpoint_a f) (fun pkt -> got := String.length pkt :: !got);
  Fabric.send f ~from:(Fabric.endpoint_b f) (String.make 100 'z');
  Simulator.run sim;
  checkb "one 100-byte packet" true (!got = [ 100 ])

(* --- Ramdisk --------------------------------------------------------------- *)

let test_ramdisk_rw () =
  let d = Ramdisk.create ~size_mb:1 in
  let data = Bytes.make 1024 'D' in
  Bytes.set data 0 'S';
  Ramdisk.write d ~sector:10 data;
  let back = Ramdisk.read d ~sector:10 ~count:2 in
  checkb "read after write" true (back = data);
  checkb "unwritten reads zero" true
    (Ramdisk.read d ~sector:500 ~count:1 = Bytes.make 512 '\000')

let test_ramdisk_bounds () =
  let d = Ramdisk.create ~size_mb:1 in
  Alcotest.check_raises "oob" (Invalid_argument "Ramdisk: out of range")
    (fun () -> ignore (Ramdisk.read d ~sector:2048 ~count:1))

let test_ramdisk_unaligned_write () =
  let d = Ramdisk.create ~size_mb:1 in
  Alcotest.check_raises "alignment"
    (Invalid_argument "Ramdisk.write: not sector-aligned") (fun () ->
      Ramdisk.write d ~sector:0 (Bytes.make 100 'x'))

(* --- Devices (through a machine + VM) --------------------------------------- *)

let make_vm () =
  let machine = Machine.create () in
  let vm =
    Vm.create ~machine ~name:"guest" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  (machine, vm)

let test_net_tx_reaches_sink () =
  let machine, vm = make_vm () in
  let net = Net.create ~machine ~vm ~name:"n0" in
  let sunk = ref [] in
  Net.set_tx_sink net (fun pkt -> sunk := pkt :: !sunk);
  Net.start_backend net;
  checkb "queued" true (Net.driver_transmit net (Bytes.of_string "pkt-1"));
  checkb "backend asleep needs kick" true (Net.need_kick net);
  (* poke the doorbell through the VM's MMIO dispatch, as the exit path does *)
  ignore (Vm.handle_mmio vm (Net.doorbell_gpa net) 1L 4);
  Simulator.run (Machine.sim machine);
  checkb "payload" true (!sunk = [ "pkt-1" ])

let test_net_rx_roundtrip_with_irq () =
  let machine, vm = make_vm () in
  let net = Net.create ~machine ~vm ~name:"n0" in
  let irqs = ref 0 in
  Net.set_raise_irq net (fun () -> incr irqs);
  Net.driver_fill_rx net 4;
  Net.backend_deliver net "hello-guest";
  checki "irq raised" 1 !irqs;
  (match Net.driver_receive net with
  | Some pkt -> checkb "payload intact" true (Bytes.to_string pkt = "hello-guest")
  | None -> Alcotest.fail "packet expected")

let test_net_rx_overrun_drops () =
  let machine, vm = make_vm () in
  let net = Net.create ~machine ~vm ~name:"n0" in
  ignore machine;
  (* no RX buffers posted *)
  Net.backend_deliver net "lost";
  Net.driver_fill_rx net 1;
  checkb "dropped, not queued" true (Net.driver_receive net = None)

let test_net_rx_buffers_recycle () =
  let machine, vm = make_vm () in
  let net = Net.create ~machine ~vm ~name:"n0" in
  ignore machine;
  ignore vm;
  Net.set_raise_irq net ignore;
  Net.driver_fill_rx net 2;
  (* far more packets than posted buffers, collected as we go *)
  for i = 1 to 50 do
    Net.backend_deliver net (Printf.sprintf "p%d" i);
    match Net.driver_receive net with
    | Some _ -> ()
    | None -> Alcotest.fail "receive expected: no drops thanks to re-posting"
  done

(* A bulk stream of identical 16 KB packets, through the driver, the vhost
   worker and the fabric, allocates no heap buffer per packet: the worker
   reads each one into a reused buffer and sends the unchanged payload as
   the same string. Counted exactly (minor + major - promoted words after
   emptying the minor heap): a 16 KB buffer is allocated straight in the
   major heap, so the minor counter alone would not see it. *)
let tx_alloc_budget_bytes_per_packet = 256.0

let test_net_tx_bulk_allocation () =
  let machine, vm = make_vm () in
  let sim = Machine.sim machine in
  let net = Net.create ~machine ~vm ~name:"n0" in
  let f = make_fabric sim in
  Net.set_tx_sink net (fun pkt -> Fabric.send f ~from:(Fabric.endpoint_a f) pkt);
  let delivered = ref 0 in
  Fabric.on_deliver (Fabric.endpoint_b f) (fun pkt ->
      delivered := !delivered + String.length pkt);
  Net.start_backend net;
  let payload = Bytes.make 16384 'D' in
  let send n =
    for i = 1 to n do
      if not (Net.driver_transmit net payload) then Alcotest.fail "TX ring full";
      if i mod 32 = 0 || i = n then begin
        if Net.need_kick net then
          ignore (Vm.handle_mmio vm (Net.doorbell_gpa net) 1L 4);
        Simulator.run sim
      end
    done
  in
  (* warm-up: every descriptor's buffer touched, the first packet kept *)
  send 300;
  let packets = 1000 in
  let w0 = Svt_obs.Profiler.allocated_words () in
  send packets;
  let words = Svt_obs.Profiler.allocated_words () -. w0 in
  checki "every byte delivered" (1300 * 16384) !delivered;
  let per_packet =
    words *. float_of_int (Sys.word_size / 8) /. float_of_int packets
  in
  checkb
    (Printf.sprintf "%.0f B/packet within %.0f" per_packet
       tx_alloc_budget_bytes_per_packet)
    true
    (per_packet <= tx_alloc_budget_bytes_per_packet)

(* A TX loop that never has more than 32 packets in flight reuses the
   same few descriptors, so it touches only their buffers: far fewer guest
   pages than the ring's 256 descriptors x 4 pages of TX buffers. *)
let test_net_tx_touches_buffers_in_flight () =
  let machine, vm = make_vm () in
  let sim = Machine.sim machine in
  let net = Net.create ~machine ~vm ~name:"n0" in
  Net.set_tx_sink net ignore;
  Net.start_backend net;
  let payload = Bytes.make 16384 'D' in
  for i = 1 to 1000 do
    if not (Net.driver_transmit net payload) then Alcotest.fail "TX ring full";
    if i mod 32 = 0 then begin
      if Net.need_kick net then ignore (Vm.handle_mmio vm (Net.doorbell_gpa net) 1L 4);
      Simulator.run sim
    end
  done;
  let resident = Svt_mem.Phys_mem.resident_pages machine.Machine.mem in
  checkb (Printf.sprintf "%d resident pages, want < 256" resident) true (resident < 256)

let test_blk_read_write_flush () =
  let machine, vm = make_vm () in
  let disk = Ramdisk.create ~size_mb:4 in
  let blk = Blk.create ~machine ~vm ~name:"b0" ~disk in
  let irqs = ref 0 in
  Blk.set_raise_irq blk (fun () -> incr irqs);
  Blk.start_backend blk;
  (* write then read back through the full device path *)
  let payload = Bytes.make 512 'W' in
  (match Blk.driver_submit blk ~kind:Blk.Write ~sector:9 ~count:1 ~data:payload () with
  | Some _ -> ()
  | None -> Alcotest.fail "submit");
  ignore (Vm.handle_mmio vm (Blk.doorbell_gpa blk) 1L 4);
  Simulator.run (Machine.sim machine);
  (match Blk.driver_collect blk with
  | Some (_, Blk.Write, None) -> ()
  | _ -> Alcotest.fail "write completion shape");
  (match Blk.driver_submit blk ~kind:Blk.Read ~sector:9 ~count:1 () with
  | Some _ -> ()
  | None -> Alcotest.fail "submit read");
  ignore (Vm.handle_mmio vm (Blk.doorbell_gpa blk) 1L 4);
  Simulator.run (Machine.sim machine);
  (match Blk.driver_collect blk with
  | Some (_, Blk.Read, Some data) ->
      checkb "read-after-write through the stack" true (data = payload)
  | _ -> Alcotest.fail "read completion shape");
  checki "irqs per completion" 2 !irqs

let test_blk_flush_cheaper_than_write () =
  let machine, vm = make_vm () in
  ignore vm;
  let disk = Ramdisk.create ~size_mb:1 in
  let blk = Blk.create ~machine ~vm ~name:"b0" ~disk in
  Blk.set_nested_penalty blk (Time.of_us 30);
  let w = Blk.service_time blk ~kind:Blk.Write ~bytes:512 in
  let f = Blk.service_time blk ~kind:Blk.Flush ~bytes:512 in
  checkb "flush skips the nested data path" true (f < w)

let () =
  Alcotest.run "svt_virtio"
    [
      ( "virtqueue",
        [
          Alcotest.test_case "power-of-two size" `Quick test_vq_power_of_two;
          Alcotest.test_case "payload through guest memory" `Quick
            test_vq_roundtrip_through_memory;
          Alcotest.test_case "fifo order" `Quick test_vq_fifo_order;
          Alcotest.test_case "ring full" `Quick test_vq_ring_full;
          Alcotest.test_case "freed descriptor reused first" `Quick
            test_vq_freed_reused_first;
          Alcotest.test_case "descriptor recycling" `Quick
            test_vq_descriptor_recycling;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "delivery latency" `Quick test_fabric_delivery_latency;
          Alcotest.test_case "serialization queues" `Quick
            test_fabric_serialization_queues;
          Alcotest.test_case "counters" `Quick test_fabric_counts;
        ] );
      ( "ramdisk",
        [
          Alcotest.test_case "read after write" `Quick test_ramdisk_rw;
          Alcotest.test_case "bounds" `Quick test_ramdisk_bounds;
          Alcotest.test_case "alignment" `Quick test_ramdisk_unaligned_write;
        ] );
      ( "virtio-net",
        [
          Alcotest.test_case "tx reaches sink" `Quick test_net_tx_reaches_sink;
          Alcotest.test_case "rx with interrupt" `Quick test_net_rx_roundtrip_with_irq;
          Alcotest.test_case "rx overrun drops" `Quick test_net_rx_overrun_drops;
          Alcotest.test_case "rx buffers recycle" `Quick test_net_rx_buffers_recycle;
          Alcotest.test_case "bulk tx touches only the buffers in flight" `Quick
            test_net_tx_touches_buffers_in_flight;
          Alcotest.test_case "bulk tx allocates no buffer per packet" `Quick
            test_net_tx_bulk_allocation;
        ] );
      ( "virtio-blk",
        [
          Alcotest.test_case "write/read/irq through the stack" `Quick
            test_blk_read_write_flush;
          Alcotest.test_case "flush cheaper than write" `Quick
            test_blk_flush_cheaper_than_write;
        ] );
    ]
