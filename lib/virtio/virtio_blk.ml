(* virtio-blk device over a ramdisk backend. Requests follow the virtio
   block layout: a 16-byte header (type, sector, count) in front of the
   payload, in one descriptor. The doorbell is MMIO like virtio-net; the
   backend worker pays the tmpfs-grade service latency of the paper's
   setup and completes with an interrupt. *)

module Simulator = Svt_engine.Simulator
module Signal = Simulator.Signal
module Proc = Simulator.Proc
module Time = Svt_engine.Time
module Gpa = Svt_mem.Addr.Gpa
module Aspace = Svt_mem.Address_space

type req_kind = Read | Write | Flush

let kind_code = function Read -> 0 | Write -> 1 | Flush -> 4
let kind_of_code = function
  | 0 -> Read
  | 1 -> Write
  | 4 -> Flush
  | _ -> invalid_arg "virtio-blk"

type t = {
  sim : Simulator.t;
  cost : Svt_arch.Cost_model.t;
  vm : Svt_hyp.Vm.t;
  queue : Virtqueue.t;
  disk : Ramdisk.t;
  doorbell : Gpa.t;
  kick : Signal.t;
  done_signal : Signal.t;
  mutable backend_asleep : bool;
  mutable raise_irq : unit -> unit;
  (* extra service latency injected by the owning hypervisor's backend
     path (an L2 disk is a file on L1's disk, which is itself virtual) *)
  mutable nested_penalty : Time.t;
  inflight : (int, Gpa.t) Hashtbl.t; (* desc id -> buffer gpa *)
  (* preallocated request-buffer pool (header + up to 4 KB payload) *)
  pool : Gpa.t array;
  mutable pool_next : int;
}

let queue_size = 256
let header_bytes = 16

let doorbell_region name = name ^ "-doorbell"

let create ~machine ~vm ~name ~disk =
  let sim = Svt_hyp.Machine.sim machine in
  let aspace = Svt_hyp.Vm.aspace vm in
  let t =
    {
      sim;
      cost = Svt_hyp.Machine.cost machine;
      vm;
      queue = Virtqueue.create ~aspace ~size:queue_size;
      disk;
      doorbell =
        Aspace.add_mmio_region aspace ~name:(doorbell_region name)
          ~len:Svt_mem.Addr.page_size;
      kick = Signal.create sim;
      done_signal = Signal.create sim;
      backend_asleep = true;
      raise_irq = ignore;
      nested_penalty = Time.zero;
      inflight = Hashtbl.create 64;
      pool =
        Array.init (2 * queue_size) (fun _ -> Aspace.alloc_guest_pages aspace 2);
      pool_next = 0;
    }
  in
  Svt_hyp.Vm.register_mmio vm ~region:(doorbell_region name) (fun _ _ _ ->
      Signal.broadcast t.kick;
      None);
  t

let doorbell_gpa t = t.doorbell
let need_kick t = t.backend_asleep
let set_raise_irq t f = t.raise_irq <- f
let set_nested_penalty t p = t.nested_penalty <- p

let aspace t = Svt_hyp.Vm.aspace t.vm

(* --- guest driver side --- *)

(* Queue a request; the caller must kick the doorbell afterwards. Returns
   the descriptor id, or None if the ring is full. *)
let driver_submit t ~kind ~sector ~count ?(data : Bytes.t option) () =
  let payload = count * Ramdisk.sector_size in
  let total = header_bytes + payload in
  if total > 2 * Svt_mem.Addr.page_size then
    invalid_arg "virtio-blk: request exceeds buffer pool entry (4 KB payload)";
  let addr = t.pool.(t.pool_next) in
  t.pool_next <- (t.pool_next + 1) mod Array.length t.pool;
  Aspace.write_u32 (aspace t) addr (kind_code kind);
  Aspace.write_u64 (aspace t) (Gpa.add addr 4) sector;
  Aspace.write_u32 (aspace t) (Gpa.add addr 12) count;
  (match (kind, data) with
  | Write, Some d -> Aspace.write_bytes (aspace t) (Gpa.add addr header_bytes) d
  | Write, None -> invalid_arg "virtio-blk: write without data"
  | (Read | Flush), _ -> ());
  match
    Virtqueue.push_avail t.queue ~addr ~len:total
      ~device_writable:(kind = Read)
  with
  | Some id ->
      Hashtbl.replace t.inflight id addr;
      Some id
  | None -> None

(* Collect one completion: (desc id, payload for reads). *)
let driver_collect t =
  match Virtqueue.pop_used t.queue with
  | None -> None
  | Some (id, _len) -> (
      match Hashtbl.find_opt t.inflight id with
      | None -> None
      | Some addr ->
          Hashtbl.remove t.inflight id;
          let kind = kind_of_code (Aspace.read_u32 (aspace t) addr) in
          let count = Aspace.read_u32 (aspace t) (Gpa.add addr 12) in
          let data =
            match kind with
            | Read ->
                Some
                  (Aspace.read_bytes (aspace t)
                     (Gpa.add addr header_bytes)
                     (count * Ramdisk.sector_size))
            | Write | Flush -> None
          in
          Some (id, kind, data))

(* --- backend worker --- *)

let service_time t ~kind =
  let base =
    Time.add t.cost.Svt_arch.Cost_model.disk_base_latency t.nested_penalty
  in
  match kind with
  | Read -> base
  | Write -> Time.add base t.cost.Svt_arch.Cost_model.disk_write_extra
  | Flush ->
      (* a barrier against L1's page cache: no nested data path *)
      Time.add t.cost.Svt_arch.Cost_model.disk_base_latency
        t.cost.Svt_arch.Cost_model.disk_write_extra

let start_backend t =
  Simulator.spawn t.sim ~name:"vhost-blk" (fun () ->
      let rec poll_window n =
        if n > 0 && Virtqueue.avail_pending t.queue = 0 then begin
          Proc.delay (Time.of_us 5);
          poll_window (n - 1)
        end
      in
      let rec loop () =
        if Virtqueue.avail_pending t.queue = 0 then begin
          t.backend_asleep <- true;
          Signal.wait t.kick;
          Proc.delay t.cost.Svt_arch.Cost_model.vhost_wake
        end;
        t.backend_asleep <- false;
        let rec drain () =
          match Virtqueue.pop_avail t.queue with
          | None -> ()
          | Some (id, addr, len, _) ->
              Proc.delay t.cost.Svt_arch.Cost_model.virtio_queue_op;
              let kind = kind_of_code (Aspace.read_u32 (aspace t) addr) in
              let sector = Aspace.read_u64 (aspace t) (Gpa.add addr 4) in
              let count = Aspace.read_u32 (aspace t) (Gpa.add addr 12) in
              let bytes = count * Ramdisk.sector_size in
              Proc.delay (service_time t ~kind);
              (match kind with
              | Read ->
                  let data = Ramdisk.read t.disk ~sector ~count in
                  Aspace.write_bytes (aspace t) (Gpa.add addr header_bytes) data
              | Write ->
                  let data =
                    Aspace.read_bytes (aspace t)
                      (Gpa.add addr header_bytes)
                      bytes
                  in
                  Ramdisk.write t.disk ~sector data
              | Flush -> ());
              Virtqueue.push_used t.queue ~id ~len;
              Signal.broadcast t.done_signal;
              t.raise_irq ();
              drain ()
        in
        drain ();
        poll_window 4;
        loop ()
      in
      loop ())
