(* Split virtqueue (VirtIO 1.0 layout) living in real simulated guest
   memory: descriptor table, available ring and used ring are read and
   written through the guest's address space (hence through its EPT),
   exactly as driver and device would.

   Layout, all within pages allocated from the guest address space:
     desc[i]  : addr u64 | len u32 | flags u16 | next u16   (16 bytes)
     avail    : flags u16 | idx u16 | ring[qsz] u16
     used     : flags u16 | idx u16 | ring[qsz] { id u32, len u32 } *)

module Aspace = Svt_mem.Address_space
module Gpa = Svt_mem.Addr.Gpa

type t = {
  aspace : Aspace.t;
  size : int;
  desc : Gpa.t;
  avail : Gpa.t;
  used : Gpa.t;
  mutable avail_shadow : int; (* driver's private next avail idx *)
  mutable last_avail : int; (* device's consumption cursor *)
  mutable last_used : int; (* driver's completion cursor *)
  mutable free_head : int;
  free : bool array; (* descriptor allocation map (driver side) *)
  mutable last_used_addr_v : int; (* a gpa; -1 before any completion *)
}

let desc_entry_size = 16

let create ~aspace ~size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Virtqueue.create: size must be a power of two";
  let desc_bytes = size * desc_entry_size in
  let avail_bytes = 4 + (2 * size) in
  let used_bytes = 4 + (8 * size) in
  let total = desc_bytes + avail_bytes + used_bytes in
  let pages = (total + Svt_mem.Addr.page_size - 1) / Svt_mem.Addr.page_size in
  let base = Aspace.alloc_guest_pages aspace pages in
  {
    aspace;
    size;
    desc = base;
    avail = Gpa.add base desc_bytes;
    used = Gpa.add base (desc_bytes + avail_bytes);
    avail_shadow = 0;
    last_avail = 0;
    last_used = 0;
    free_head = 0;
    free = Array.make size true;
    last_used_addr_v = -1;
  }

let desc_addr t i = Gpa.add t.desc (i * desc_entry_size)

let write_desc t i ~addr ~len ~flags ~next =
  let d = desc_addr t i in
  Aspace.write_u64 t.aspace d (Gpa.to_int addr);
  Aspace.write_u32 t.aspace (Gpa.add d 8) len;
  Aspace.write_u16 t.aspace (Gpa.add d 12) flags;
  Aspace.write_u16 t.aspace (Gpa.add d 14) next

(* Driver side: the descriptor the next [push_avail] will take. *)
let rec find_free t i n =
  if n = 0 then None
  else if t.free.(i) then Some i
  else find_free t ((i + 1) mod t.size) (n - 1)

let next_free t = find_free t t.free_head t.size

let alloc_desc t =
  match next_free t with
  | None -> None
  | Some i as d ->
      t.free.(i) <- false;
      t.free_head <- (i + 1) mod t.size;
      d

let free_desc t i = t.free.(i) <- true

(* Driver side: expose a buffer to the device. Returns the descriptor
   index, or None when the ring is full. *)
let push_avail t ~addr ~len ~device_writable =
  match alloc_desc t with
  | None -> None
  | Some i as d ->
      let flags = if device_writable then 2 (* VRING_DESC_F_WRITE *) else 0 in
      write_desc t i ~addr ~len ~flags ~next:0;
      let slot = t.avail_shadow land (t.size - 1) in
      Aspace.write_u16 t.aspace (Gpa.add t.avail (4 + (2 * slot))) i;
      t.avail_shadow <- (t.avail_shadow + 1) land 0xFFFF;
      Aspace.write_u16 t.aspace (Gpa.add t.avail 2) t.avail_shadow;
      d

(* Device side: number of buffers the driver has made available. *)
let avail_pending t =
  let idx = Aspace.read_u16 t.aspace (Gpa.add t.avail 2) in
  (idx - t.last_avail) land 0xFFFF

(* Device side: take the next available descriptor. *)
let pop_avail t =
  if avail_pending t = 0 then None
  else begin
    let slot = t.last_avail land (t.size - 1) in
    let i = Aspace.read_u16 t.aspace (Gpa.add t.avail (4 + (2 * slot))) in
    t.last_avail <- (t.last_avail + 1) land 0xFFFF;
    let d = desc_addr t i in
    let addr = Gpa.of_int (Aspace.read_u64 t.aspace d) in
    let len = Aspace.read_u32 t.aspace (Gpa.add d 8) in
    let flags = Aspace.read_u16 t.aspace (Gpa.add d 12) in
    Some (i, addr, len, flags land 2 <> 0)
  end

(* Device side: return a completed descriptor. *)
let push_used t ~id ~len =
  let used_idx = Aspace.read_u16 t.aspace (Gpa.add t.used 2) in
  let slot = used_idx land (t.size - 1) in
  let entry = Gpa.add t.used (4 + (8 * slot)) in
  Aspace.write_u32 t.aspace entry id;
  Aspace.write_u32 t.aspace (Gpa.add entry 4) len;
  Aspace.write_u16 t.aspace (Gpa.add t.used 2) ((used_idx + 1) land 0xFFFF)

(* Driver side: collect one completion. *)
let pop_used t =
  let used_idx = Aspace.read_u16 t.aspace (Gpa.add t.used 2) in
  if (used_idx - t.last_used) land 0xFFFF = 0 then None
  else begin
    let slot = t.last_used land (t.size - 1) in
    let entry = Gpa.add t.used (4 + (8 * slot)) in
    let id = Aspace.read_u32 t.aspace entry in
    let len = Aspace.read_u32 t.aspace (Gpa.add entry 4) in
    t.last_used <- (t.last_used + 1) land 0xFFFF;
    t.last_used_addr_v <- Aspace.read_u64 t.aspace (desc_addr t id);
    free_desc t id;
    Some (id, len)
  end

(* Buffer address of the most recently collected completion; how a driver
   without a side table locates the payload. *)
let last_used_addr t =
  if t.last_used_addr_v < 0 then None else Some (Gpa.of_int t.last_used_addr_v)
