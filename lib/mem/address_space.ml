(* A guest's physical address-space layout plus its backing: which GPA
   ranges are RAM (EPT-mapped to host frames) and which are MMIO regions
   (deliberately EPT-misconfigured so stores trap — virtio doorbells).

   Also provides guest-physical accessors that go through the EPT, which
   is how hypervisor and device code touch guest memory (vrings, command
   channels) exactly as real DMA/copy paths would. *)

type t = {
  ept : Ept.t;
  mem : Phys_mem.t; (* host memory backing RAM regions *)
  alloc : Frame_alloc.t;
  mutable alloc_cursor : Addr.Gpa.t; (* next free GPA for dynamic regions *)
}

let create ~mem ~alloc ~ram_bytes =
  if ram_bytes <= 0 then invalid_arg "Address_space.create";
  let t =
    { ept = Ept.create (); mem; alloc; alloc_cursor = Addr.Gpa.of_int 0 }
  in
  (* Back all of guest RAM with host frames up front (the paper's VMs are
     configured to avoid swapping). *)
  let pages = (ram_bytes + Addr.page_size - 1) / Addr.page_size in
  Ept.map_range t.ept ~gpa:(Addr.Gpa.of_int 0) ~len:(pages * Addr.page_size)
    ~perm:Ept.rwx ~hpa:(Frame_alloc.alloc alloc pages);
  t.alloc_cursor <- Addr.Gpa.of_int (pages * Addr.page_size);
  t

let ept t = t.ept

(* Carve a fresh MMIO region (device BAR): the EPT entries are marked
   misconfigured so guest accesses exit with EPT_MISCONFIG. The region's
   name is each page's misconfiguration tag, so the EPT alone says which
   region a guest address falls in: no region list is kept. *)
let add_mmio_region t ~name ~len =
  let base = t.alloc_cursor in
  let pages = (len + Addr.page_size - 1) / Addr.page_size in
  for i = 0 to pages - 1 do
    Ept.mark_misconfig t.ept
      ~gpa:(Addr.Gpa.add base (i * Addr.page_size))
      ~tag:name
  done;
  t.alloc_cursor <- Addr.Gpa.add base (pages * Addr.page_size);
  base

(* Guest-physical accessors through the EPT. Raise on faults: callers that
   model faulting paths use [Ept.translate] directly. The hit path is
   [Ept.resolve], which allocates nothing; only a fault builds the typed
   [Ept.fault], for the message. *)
let fault t gpa access =
  match Ept.translate t.ept ~gpa ~access with
  | Ok _ -> assert false
  | Error f -> failwith (Fmt.str "%a" Ept.pp_fault f)

let hpa_exn t gpa access =
  let h = Ept.resolve t.ept ~gpa ~access in
  if h < 0 then fault t gpa access else Addr.Hpa.of_int h

let read_u64 t gpa = Phys_mem.read_u64 t.mem (hpa_exn t gpa Ept.Read)
let write_u64 t gpa v = Phys_mem.write_u64 t.mem (hpa_exn t gpa Ept.Write) v
let read_u32 t gpa = Phys_mem.read_u32 t.mem (hpa_exn t gpa Ept.Read)
let write_u32 t gpa v = Phys_mem.write_u32 t.mem (hpa_exn t gpa Ept.Write) v
let read_u16 t gpa = Phys_mem.read_u16 t.mem (hpa_exn t gpa Ept.Read)
let write_u16 t gpa v = Phys_mem.write_u16 t.mem (hpa_exn t gpa Ept.Write) v
let read_u8 t gpa = Phys_mem.read_u8 t.mem (hpa_exn t gpa Ept.Read)

(* Bulk copies go a page at a time, to honour per-page mappings: each 4 KB
   page is translated once through the EPT (so permission and
   misconfiguration faults are raised per page, before that page is
   touched) and then blitted straight between host memory and [buf]. *)
let copy_pages t gpa buf access copy =
  let len = Bytes.length buf in
  let done_ = ref 0 in
  while !done_ < len do
    let gpa' = Addr.Gpa.add gpa !done_ in
    let in_page =
      Stdlib.min (len - !done_) (Addr.page_size - Addr.Gpa.offset gpa')
    in
    copy t.mem (hpa_exn t gpa' access) buf ~off:!done_ ~len:in_page;
    done_ := !done_ + in_page
  done

let read_into t gpa buf = copy_pages t gpa buf Ept.Read Phys_mem.read_into

let read_bytes t gpa len =
  let out = Bytes.create len in
  read_into t gpa out;
  out

let write_bytes t gpa data = copy_pages t gpa data Ept.Write Phys_mem.write_from

(* A shared ring's page, translated once (the ivshmem BAR, mapped by
   both sides). [Phys_mem] never replaces a page, and [alloc_guest_pages]
   only maps fresh guest pages, so the bytes stay the guest's. *)
let host_page t gpa = Phys_mem.page_for t.mem (hpa_exn t gpa Ept.Write)

(* Allocate fresh, already-mapped guest pages (for rings, buffers). *)
let alloc_guest_pages t n =
  let base = t.alloc_cursor in
  Ept.map_range t.ept ~gpa:base ~len:(n * Addr.page_size) ~perm:Ept.rwx
    ~hpa:(Frame_alloc.alloc t.alloc n);
  t.alloc_cursor <- Addr.Gpa.add base (n * Addr.page_size);
  base
