(* Sparse host physical memory with byte-level contents. Pages materialize
   on first touch. Real contents matter because virtqueue rings and the SW
   SVt command channels live in this memory and are read/written by both
   guests and hypervisors. *)

type t = { pages : (int, Bytes.t) Hashtbl.t }

let create () = { pages = Hashtbl.create 1024 }

(* [Hashtbl.find] rather than [find_opt]: the hit path, which is almost
   every access, allocates nothing. *)
let page_for t hpa =
  let pn = Addr.Hpa.page_of hpa in
  match Hashtbl.find t.pages pn with
  | p -> p
  | exception Not_found ->
      let p = Bytes.make Addr.page_size '\000' in
      Hashtbl.add t.pages pn p;
      p

(* Range copies between host memory and a caller's buffer: one page lookup
   and one blit per 4 KB page. *)
let blit_range ~name ~into_buf t hpa buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg name;
  let rec go hpa off len =
    if len > 0 then begin
      let po = Addr.Hpa.offset hpa in
      let n = Stdlib.min len (Addr.page_size - po) in
      let page = page_for t hpa in
      if into_buf then Bytes.blit page po buf off n
      else Bytes.blit buf off page po n;
      go (Addr.Hpa.add hpa n) (off + n) (len - n)
    end
  in
  go hpa off len

let read_into t hpa buf ~off ~len =
  blit_range ~name:"Phys_mem.read_into" ~into_buf:true t hpa buf ~off ~len

let write_from t hpa buf ~off ~len =
  blit_range ~name:"Phys_mem.write_from" ~into_buf:false t hpa buf ~off ~len

let read_u8 t hpa =
  let p = page_for t hpa in
  Char.code (Bytes.get p (Addr.Hpa.offset hpa))

let write_u8 t hpa v =
  let p = page_for t hpa in
  Bytes.set p (Addr.Hpa.offset hpa) (Char.chr (v land 0xFF))

(* Multi-byte accessors: an access within one page is one lookup and one
   load or store; the rare page-crossing access goes through a scratch
   buffer and the range copies. Each touches exactly its own bytes. *)
let within_page hpa width = Addr.Hpa.offset hpa + width <= Addr.page_size

let read_straddling t hpa width =
  let b = Bytes.create width in
  read_into t hpa b ~off:0 ~len:width;
  b

let write_straddling t hpa b = write_from t hpa b ~off:0 ~len:(Bytes.length b)

let read_u64 t hpa =
  if within_page hpa 8 then
    Bytes.get_int64_le (page_for t hpa) (Addr.Hpa.offset hpa)
  else Bytes.get_int64_le (read_straddling t hpa 8) 0

let write_u64 t hpa v =
  if within_page hpa 8 then
    Bytes.set_int64_le (page_for t hpa) (Addr.Hpa.offset hpa) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_straddling t hpa b
  end

let read_u32 t hpa =
  let v =
    if within_page hpa 4 then
      Bytes.get_int32_le (page_for t hpa) (Addr.Hpa.offset hpa)
    else Bytes.get_int32_le (read_straddling t hpa 4) 0
  in
  Int32.to_int v land 0xFFFF_FFFF

let write_u32 t hpa v =
  if within_page hpa 4 then
    Bytes.set_int32_le (page_for t hpa) (Addr.Hpa.offset hpa) (Int32.of_int v)
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write_straddling t hpa b
  end

let read_u16 t hpa =
  if within_page hpa 2 then
    Bytes.get_uint16_le (page_for t hpa) (Addr.Hpa.offset hpa)
  else Bytes.get_uint16_le (read_straddling t hpa 2) 0

let write_u16 t hpa v =
  if within_page hpa 2 then
    Bytes.set_uint16_le (page_for t hpa) (Addr.Hpa.offset hpa) (v land 0xFFFF)
  else begin
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 (v land 0xFFFF);
    write_straddling t hpa b
  end

let resident_pages t = Hashtbl.length t.pages
