(* Write-ahead log over virtio-blk: the durability substrate of the mini
   transactional engine. Records accumulate in an in-memory buffer; commit
   serializes the buffer to log sectors, writes them through the block
   device and issues a flush barrier — the 2-request write pattern whose
   exit cost dominates nested transaction latency. *)

module Time = Svt_engine.Time
module Blk = Svt_virtio.Virtio_blk
module Ramdisk = Svt_virtio.Ramdisk
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu

type record = { lsn : int; payload : string }

type t = {
  blk : Blk.t;
  vcpu : Vcpu.t;
  mutable next_lsn : int;
  mutable pending : record list; (* newest first *)
  mutable next_sector : int;
}

(* The circular log area: [log_sectors] sectors from [log_start]. *)
let log_start = 4096
let log_sectors = 65536

let create ~blk ~vcpu =
  { blk; vcpu; next_lsn = 1; pending = []; next_sector = log_start }

let append t payload =
  let r = { lsn = t.next_lsn; payload } in
  t.next_lsn <- t.next_lsn + 1;
  t.pending <- r :: t.pending;
  r.lsn

let serialize records =
  let buf = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "%08d:" r.lsn);
      Buffer.add_string buf r.payload;
      Buffer.add_char buf '\n')
    (List.rev records);
  Buffer.contents buf

(* Durably commit everything pending: write the serialized records to log
   sectors, kick, wait for completion, then flush. Runs in the vCPU
   process (it performs privileged operations). *)
let commit t =
  if t.pending <> [] then begin
    let data = serialize t.pending in
    let sectors =
      (String.length data + Ramdisk.sector_size - 1) / Ramdisk.sector_size
    in
    let sectors = max 1 (min sectors 7) (* cap to the request buffer *) in
    let padded = Bytes.make (sectors * Ramdisk.sector_size) '\000' in
    Bytes.blit_string data 0 padded 0
      (min (String.length data) (Bytes.length padded));
    if t.next_sector + sectors >= log_start + log_sectors then
      t.next_sector <- log_start (* wrap the circular log *);
    (match
       Blk.driver_submit t.blk ~kind:Blk.Write ~sector:t.next_sector
         ~count:sectors ~data:padded ()
     with
    | Some _ -> ()
    | None -> failwith "Wal.commit: block queue full");
    if Blk.need_kick t.blk then
      Guest.mmio_write32 t.vcpu (Blk.doorbell_gpa t.blk) 1;
    (* wait for the data write *)
    let rec await () =
      match Blk.driver_collect t.blk with
      | Some _ -> ()
      | None ->
          Guest.arm_timer t.vcpu ~after:(Time.of_ms 1);
          Guest.hlt t.vcpu;
          await ()
    in
    await ();
    (* flush barrier *)
    (match
       Blk.driver_submit t.blk ~kind:Blk.Flush ~sector:t.next_sector ~count:1 ()
     with
    | Some _ -> ()
    | None -> failwith "Wal.commit: block queue full");
    if Blk.need_kick t.blk then
      Guest.mmio_write32 t.vcpu (Blk.doorbell_gpa t.blk) 1;
    let rec poll () =
      match Blk.driver_collect t.blk with
      | Some _ -> ()
      | None ->
          Guest.compute t.vcpu (Time.of_ns 500);
          poll ()
    in
    poll ();
    t.next_sector <- t.next_sector + sectors;
    t.pending <- []
  end
