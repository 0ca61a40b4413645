(* A guest's physical address-space layout plus its backing: which GPA
   ranges are RAM (EPT-mapped to host frames) and which are MMIO regions
   (deliberately EPT-misconfigured so stores trap — virtio doorbells).

   Also provides guest-physical accessors that go through the EPT, which
   is how hypervisor and device code touch guest memory (vrings, command
   channels) exactly as real DMA/copy paths would. *)

type region = {
  name : string;
  base : Addr.Gpa.t;
  len : int;
  kind : [ `Ram | `Mmio ];
}

type t = {
  ept : Ept.t;
  mem : Phys_mem.t; (* host memory backing RAM regions *)
  mutable regions : region list;
  alloc : Frame_alloc.t;
  mutable alloc_cursor : Addr.Gpa.t; (* next free GPA for dynamic regions *)
}

let create ~mem ~alloc ~ram_bytes =
  if ram_bytes <= 0 then invalid_arg "Address_space.create";
  let t =
    { ept = Ept.create (); mem; regions = []; alloc;
      alloc_cursor = Addr.Gpa.of_int 0 }
  in
  (* Back all of guest RAM with host frames up front (the paper's VMs are
     configured to avoid swapping). *)
  let pages = (ram_bytes + Addr.page_size - 1) / Addr.page_size in
  for i = 0 to pages - 1 do
    let hpa = Frame_alloc.alloc alloc in
    Ept.map t.ept ~gpa:(Addr.Gpa.of_int (i * Addr.page_size)) ~hpa ~perm:Ept.rwx
  done;
  t.regions <-
    [ { name = "ram"; base = Addr.Gpa.of_int 0; len = pages * Addr.page_size;
        kind = `Ram } ];
  t.alloc_cursor <- Addr.Gpa.of_int (pages * Addr.page_size);
  t

let ept t = t.ept
let regions t = t.regions

(* Carve a fresh MMIO region (device BAR): the EPT entries are marked
   misconfigured so guest accesses exit with EPT_MISCONFIG. *)
let add_mmio_region t ~name ~len =
  let base = t.alloc_cursor in
  let pages = (len + Addr.page_size - 1) / Addr.page_size in
  for i = 0 to pages - 1 do
    Ept.mark_misconfig t.ept
      ~gpa:(Addr.Gpa.add base (i * Addr.page_size))
      ~tag:name
  done;
  t.alloc_cursor <- Addr.Gpa.add base (pages * Addr.page_size);
  t.regions <- { name; base; len = pages * Addr.page_size; kind = `Mmio } :: t.regions;
  base

let region_of_gpa t gpa =
  List.find_opt
    (fun r ->
      Addr.Gpa.to_int gpa >= Addr.Gpa.to_int r.base
      && Addr.Gpa.to_int gpa < Addr.Gpa.to_int r.base + r.len)
    t.regions

let translate t ~gpa ~access = Ept.translate t.ept ~gpa ~access

(* Guest-physical accessors through the EPT. Raise on faults: callers that
   model faulting paths use [translate] directly. *)
let hpa_exn t gpa access =
  match translate t ~gpa ~access with
  | Ok hpa -> hpa
  | Error f -> failwith (Fmt.str "%a" Ept.pp_fault f)

let read_u64 t gpa = Phys_mem.read_u64 t.mem (hpa_exn t gpa Ept.Read)
let write_u64 t gpa v = Phys_mem.write_u64 t.mem (hpa_exn t gpa Ept.Write) v
let read_u32 t gpa = Phys_mem.read_u32 t.mem (hpa_exn t gpa Ept.Read)
let write_u32 t gpa v = Phys_mem.write_u32 t.mem (hpa_exn t gpa Ept.Write) v
let read_u16 t gpa = Phys_mem.read_u16 t.mem (hpa_exn t gpa Ept.Read)
let write_u16 t gpa v = Phys_mem.write_u16 t.mem (hpa_exn t gpa Ept.Write) v
let read_u8 t gpa = Phys_mem.read_u8 t.mem (hpa_exn t gpa Ept.Read)
let write_u8 t gpa v = Phys_mem.write_u8 t.mem (hpa_exn t gpa Ept.Write) v

(* Bulk copies go a page at a time, to honour per-page mappings: each 4 KB
   page is translated once through the EPT (so permission and
   misconfiguration faults are raised per page, before that page is
   touched) and then blitted straight between host memory and [buf]. *)
let copy_pages t gpa buf access copy =
  let len = Bytes.length buf in
  let rec go done_ =
    if done_ < len then begin
      let gpa' = Addr.Gpa.add gpa done_ in
      let in_page =
        Stdlib.min (len - done_) (Addr.page_size - Addr.Gpa.offset gpa')
      in
      copy t.mem (hpa_exn t gpa' access) buf ~off:done_ ~len:in_page;
      go (done_ + in_page)
    end
  in
  go 0

let read_bytes t gpa len =
  let out = Bytes.create len in
  copy_pages t gpa out Ept.Read Phys_mem.read_into;
  out

let write_bytes t gpa data = copy_pages t gpa data Ept.Write Phys_mem.write_from

(* Allocate fresh, already-mapped guest pages (for rings, buffers). *)
let alloc_guest_pages t n =
  let base = t.alloc_cursor in
  for i = 0 to n - 1 do
    let hpa = Frame_alloc.alloc t.alloc in
    Ept.map t.ept ~gpa:(Addr.Gpa.add base (i * Addr.page_size)) ~hpa ~perm:Ept.rwx
  done;
  t.alloc_cursor <- Addr.Gpa.add base (n * Addr.page_size);
  t.regions <-
    { name = "alloc"; base; len = n * Addr.page_size; kind = `Ram } :: t.regions;
  base
