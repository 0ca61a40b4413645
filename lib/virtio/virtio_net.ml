(* virtio-net device with a vhost-style backend.

   The guest driver side writes packets into guest memory and exposes them
   on the TX virtqueue; the doorbell is an MMIO page, so the kick itself
   is the EPT_MISCONFIG exit the paper's profiles show dominating L0 time
   under network load (§6.2, §6.3.1). The backend runs as its own process
   (vhost worker on another physical CPU): it drains the TX ring, pays the
   host-side processing cost, and hands packets to a sink — the fabric for
   an L1 device, or the L1 forwarding path for an L2 device. Reception is
   the mirror image through guest-posted RX buffers plus an interrupt. *)

module Simulator = Svt_engine.Simulator
module Signal = Simulator.Signal
module Proc = Simulator.Proc
module Gpa = Svt_mem.Addr.Gpa
module Aspace = Svt_mem.Address_space

type t = {
  sim : Simulator.t;
  cost : Svt_arch.Cost_model.t;
  vm : Svt_hyp.Vm.t;
  rx : Virtqueue.t;
  tx : Virtqueue.t;
  doorbell : Gpa.t;
  kick : Signal.t;
  rx_ready : Signal.t; (* completion arrived for the driver *)
  mutable tx_sink : string -> unit;
  mutable raise_irq : unit -> unit;
  mutable backend_asleep : bool;
  (* EVENT_IDX-style notification suppression: the driver only kicks when
     the backend has announced it is going to sleep *)
  rx_buf_len : int;
  (* one TX buffer per descriptor: a buffer is rewritten only after its
     descriptor has completed *)
  tx_bufs : Gpa.t array;
  (* vhost's read buffer, and the last packet it sent *)
  mutable tx_scratch : Bytes.t;
  mutable tx_last : string;
}

let queue_size = 256
let rx_buffer_bytes = 2048
let tx_buffer_pages = 4 (* up to 16 KB frames *)

let doorbell_region name = name ^ "-doorbell"

let create ~machine ~vm ~name =
  let sim = Svt_hyp.Machine.sim machine in
  let aspace = Svt_hyp.Vm.aspace vm in
  let t =
    {
      sim;
      cost = Svt_hyp.Machine.cost machine;
      vm;
      rx = Virtqueue.create ~aspace ~size:queue_size;
      tx = Virtqueue.create ~aspace ~size:queue_size;
      doorbell =
        Aspace.add_mmio_region aspace ~name:(doorbell_region name)
          ~len:Svt_mem.Addr.page_size;
      kick = Signal.create sim;
      rx_ready = Signal.create sim;
      backend_asleep = true;
      tx_sink = ignore;
      raise_irq = ignore;
      rx_buf_len = rx_buffer_bytes;
      tx_bufs =
        Array.init queue_size (fun _ ->
            Aspace.alloc_guest_pages aspace tx_buffer_pages);
      tx_scratch = Bytes.empty;
      tx_last = "";
    }
  in
  (* The doorbell MMIO handler: runs as the semantic effect of the guest's
     trapped store and only wakes the backend. *)
  Svt_hyp.Vm.register_mmio vm ~region:(doorbell_region name) (fun _ _ _ ->
      Signal.broadcast t.kick;
      None);
  t

let doorbell_gpa t = t.doorbell
let set_tx_sink t f = t.tx_sink <- f
let set_raise_irq t f = t.raise_irq <- f

(* TX descriptors the backend has not consumed yet. *)
let tx_backlog t = Virtqueue.avail_pending t.tx

(* Whether a doorbell kick is needed after queuing a buffer: only when the
   backend has parked (EVENT_IDX suppression). *)
let need_kick t = t.backend_asleep

(* --- guest driver side --- *)

let aspace t = Svt_hyp.Vm.aspace t.vm

(* Queue a packet on the TX ring; the caller must then kick the doorbell
   (a privileged MMIO store via the Guest API). *)
(* Reclaim completed TX descriptors (drivers do this on the transmit
   path); without it the descriptor table exhausts after one ring's worth
   of sends. *)
let rec driver_reclaim_tx t =
  match Virtqueue.pop_used t.tx with
  | Some _ -> driver_reclaim_tx t
  | None -> ()

let driver_transmit t (pkt : Bytes.t) =
  driver_reclaim_tx t;
  let len = Bytes.length pkt in
  if len > tx_buffer_pages * Svt_mem.Addr.page_size then
    invalid_arg "virtio-net: packet larger than a TX buffer";
  match Virtqueue.next_free t.tx with
  | None -> false
  | Some d -> (
      let addr = t.tx_bufs.(d) in
      Aspace.write_bytes (aspace t) addr pkt;
      match Virtqueue.push_avail t.tx ~addr ~len ~device_writable:false with
      | Some i when i = d -> true
      | Some _ | None -> assert false)

(* Post [n] empty RX buffers for the device to fill. *)
let driver_fill_rx t n =
  for _ = 1 to n do
    let addr = Aspace.alloc_guest_pages (aspace t) 1 in
    ignore
      (Virtqueue.push_avail t.rx ~addr ~len:t.rx_buf_len ~device_writable:true)
  done

(* Collect one received packet, if any. The consumed buffer is re-posted
   immediately, as real NIC drivers do, so the RX ring never starves. *)
let driver_receive t =
  match Virtqueue.pop_used t.rx with
  | None -> None
  | Some (_id, len) -> (
      (* The used entry does not carry the address; a real driver keeps a
         side table. We re-read from the descriptor we freed, which the
         virtqueue keeps intact until reallocation. *)
      match Virtqueue.last_used_addr t.rx with
      | Some addr ->
          let pkt = Aspace.read_bytes (aspace t) addr len in
          ignore
            (Virtqueue.push_avail t.rx ~addr ~len:t.rx_buf_len
               ~device_writable:true);
          Some pkt
      | None -> None)

(* --- backend (vhost worker) side --- *)

(* Deliver a packet from the outside into the guest: fill a posted RX
   buffer, complete it and raise the interrupt. Drops when the guest has
   no buffers (as real NICs do under overrun). *)
let backend_deliver t (pkt : string) =
  match Virtqueue.pop_avail t.rx with
  | None -> ()
  | Some (id, addr, cap, _writable) ->
      let len = min (String.length pkt) cap in
      let payload = if len < String.length pkt then String.sub pkt 0 len else pkt in
      (* [write_bytes] only reads its source, so the packet stays intact *)
      Aspace.write_bytes (aspace t) addr (Bytes.unsafe_of_string payload);
      Virtqueue.push_used t.rx ~id ~len;
      Signal.broadcast t.rx_ready;
      t.raise_irq ()

(* Read the [len]-byte TX packet at [addr] as a wire packet. The bytes
   land in the reused scratch buffer; when they equal the last packet
   sent, that same string goes out again, so a bulk stream of identical
   payloads reads every packet into one buffer and allocates nothing. A
   new payload keeps the buffer it was read into as its string (it is
   never written again), and the next read makes a fresh scratch. *)
let read_tx t addr len =
  let buf =
    if Bytes.length t.tx_scratch = len then t.tx_scratch else Bytes.create len
  in
  Aspace.read_into (aspace t) addr buf;
  let pkt = Bytes.unsafe_to_string buf in
  if String.equal pkt t.tx_last then t.tx_scratch <- buf
  else begin
    t.tx_last <- pkt;
    t.tx_scratch <- Bytes.empty
  end;
  t.tx_last

(* The vhost worker process: waits for kicks and drains the TX ring,
   paying the host-side costs, then forwards each packet to the sink. *)
let start_backend t =
  Simulator.spawn t.sim ~name:"vhost-net" (fun () ->
      (* No TX-completion interrupts: as in Linux's virtio-net, transmitted
         skbs are reclaimed on the next transmit, not by IRQ. *)
      let rec drain n =
        match Virtqueue.pop_avail t.tx with
        | None -> ignore n
        | Some (id, addr, len, _) ->
            Proc.delay t.cost.Svt_arch.Cost_model.virtio_queue_op;
            let pkt = read_tx t addr len in
            Virtqueue.push_used t.tx ~id ~len;
            t.tx_sink pkt;
            drain (n + 1)
      in
      (* vhost busy-polls briefly after going idle before re-enabling
         notifications and parking; sustained streams thus never kick. *)
      let rec poll_window n =
        if n > 0 && Virtqueue.avail_pending t.tx = 0 then begin
          Proc.delay Svt_arch.Cost_model.vhost_poll_interval;
          poll_window (n - 1)
        end
      in
      let rec loop () =
        if Virtqueue.avail_pending t.tx = 0 then begin
          t.backend_asleep <- true;
          Signal.wait t.kick;
          Proc.delay t.cost.Svt_arch.Cost_model.vhost_wake;
          Proc.delay t.cost.Svt_arch.Cost_model.vhost_kick
        end;
        t.backend_asleep <- false;
        drain 0;
        poll_window 4;
        loop ()
      in
      loop ())
