(* Sparse host physical memory with byte-level contents. Pages materialize
   on first touch. Real contents matter because virtqueue rings and the SW
   SVt command channels live in this memory and are read/written by both
   guests and hypervisors.

   Pages are found by frame number through a directory of chunks of up
   to 512 pages: two array loads, no hashing. The directory starts at the
   first chunk touched and grows toward each chunk touched outside it, by
   at least its own length, so it spans little more than the chunks
   between the lowest and highest pages touched (one word per 2 MB of
   host address space). A chunk is sized like an EPT table: 8 slots,
   doubling on a touch past its end up to 512. Frames come dense from
   the bump allocator, so a fresh machine's first page costs a directory
   of one slot and a chunk of 8, which stay on the minor heap. *)

let chunk_bits = 9
let chunk_pages = 1 lsl chunk_bits

(* Slots in a new chunk; chunks double from here up to [chunk_pages]. *)
let chunk_floor = 8

(* [no_chunk] fills the directory's untouched slots and [no_page] a
   chunk's untouched pages; both are told apart by length. *)
let no_chunk : Bytes.t array = [||]
let no_page = Bytes.empty

(* [dir.(i)] is chunk [base + i]. *)
type t = {
  mutable base : int;
  mutable dir : Bytes.t array array;
  mutable resident : int;
}

let create () = { base = 0; dir = [||]; resident = 0 }

(* The directory index of chunk [c], after widening the directory to
   cover it. *)
let cover t c =
  let len = Array.length t.dir in
  if len = 0 then t.base <- c;
  if c < t.base then begin
    let base = Stdlib.max 0 (Stdlib.min c (t.base - len)) in
    let dir = Array.make (t.base + len - base) no_chunk in
    Array.blit t.dir 0 dir (t.base - base) len;
    t.base <- base;
    t.dir <- dir
  end
  else if c - t.base >= len then begin
    let dir = Array.make (Stdlib.max (c - t.base + 1) (2 * len)) no_chunk in
    Array.blit t.dir 0 dir 0 len;
    t.dir <- dir
  end;
  c - t.base

(* [chunk] itself if it has slot [slot], else a copy doubled from
   [chunk_floor] until it does. [slot < chunk_pages], so it stops at
   [chunk_pages]. *)
let widen chunk slot =
  if slot < Array.length chunk then chunk
  else begin
    let n = ref (Stdlib.max chunk_floor (Array.length chunk)) in
    while !n <= slot do
      n := 2 * !n
    done;
    let c = Array.make !n no_page in
    Array.blit chunk 0 c 0 (Array.length chunk);
    c
  end

let materialize t pn =
  let ci = cover t (pn lsr chunk_bits) in
  let slot = pn land (chunk_pages - 1) in
  let chunk = widen t.dir.(ci) slot in
  t.dir.(ci) <- chunk;
  let p = Bytes.make Addr.page_size '\000' in
  chunk.(slot) <- p;
  t.resident <- t.resident + 1;
  p

(* The hit path, which is almost every access, allocates nothing. A
   chunk index outside the directory, an untouched chunk ([no_chunk] has
   no slot) and a slot past its chunk's end all miss the same way. *)
let page_for t hpa =
  let pn = Addr.Hpa.page_of hpa in
  let ci = (pn lsr chunk_bits) - t.base in
  let dir = t.dir in
  if ci >= 0 && ci < Array.length dir then begin
    let chunk = dir.(ci) in
    let slot = pn land (chunk_pages - 1) in
    if slot < Array.length chunk then begin
      let p = chunk.(slot) in
      if Bytes.length p > 0 then p else materialize t pn
    end
    else materialize t pn
  end
  else materialize t pn

(* Range copies between host memory and a caller's buffer: one page lookup
   and one blit per 4 KB page, and no allocation. *)
let blit_range ~name ~into_buf t hpa buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg name;
  let copied = ref 0 in
  while !copied < len do
    let h = Addr.Hpa.add hpa !copied in
    let po = Addr.Hpa.offset h in
    let n = Stdlib.min (len - !copied) (Addr.page_size - po) in
    let page = page_for t h in
    if into_buf then Bytes.blit page po buf (off + !copied) n
    else Bytes.blit buf (off + !copied) page po n;
    copied := !copied + n
  done

let read_into t hpa buf ~off ~len =
  blit_range ~name:"Phys_mem.read_into" ~into_buf:true t hpa buf ~off ~len

let write_from t hpa buf ~off ~len =
  blit_range ~name:"Phys_mem.write_from" ~into_buf:false t hpa buf ~off ~len

let read_u8 t hpa =
  let p = page_for t hpa in
  Char.code (Bytes.get p (Addr.Hpa.offset hpa))

(* Multi-byte accessors: an access within one page is one lookup and one
   load or store; the rare page-crossing access goes through a scratch
   buffer and the range copies. Each touches exactly its own bytes. *)
let within_page hpa width = Addr.Hpa.offset hpa + width <= Addr.page_size

let read_straddling t hpa width =
  let b = Bytes.create width in
  read_into t hpa b ~off:0 ~len:width;
  b

let write_straddling t hpa b = write_from t hpa b ~off:0 ~len:(Bytes.length b)

(* 64-bit words travel as ints, so no call boxes an [int64]. *)
let read_u64 t hpa =
  Int64.to_int
    (if within_page hpa 8 then
       Bytes.get_int64_le (page_for t hpa) (Addr.Hpa.offset hpa)
     else Bytes.get_int64_le (read_straddling t hpa 8) 0)

let write_u64 t hpa v =
  if within_page hpa 8 then
    Bytes.set_int64_le (page_for t hpa) (Addr.Hpa.offset hpa) (Int64.of_int v)
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
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

let resident_pages t = t.resident
