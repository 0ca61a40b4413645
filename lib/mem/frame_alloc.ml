(* Bump allocator of host physical frames. Hypervisors draw frames from
   here for guest RAM, VMCS pages, page-table pages and the shared SW SVt
   rings; no frame is ever returned. *)

type t = { mutable next_frame : int; limit_frames : int }

let create ~base ~size_bytes =
  if not (Addr.Hpa.is_page_aligned (Addr.Hpa.of_int base)) then
    invalid_arg "Frame_alloc.create: unaligned base";
  {
    next_frame = base lsr Addr.page_shift;
    limit_frames = (base + size_bytes) lsr Addr.page_shift;
  }

(* A run of [n] frames is the next [n] of the bump: the same frames [n]
   one-frame calls would hand out, in the same order. *)
let alloc t n =
  if n < 0 then invalid_arg "Frame_alloc.alloc";
  if n > t.limit_frames - t.next_frame then failwith "Frame_alloc: out of memory";
  let f = t.next_frame in
  t.next_frame <- t.next_frame + n;
  Addr.Hpa.of_int (f lsl Addr.page_shift)
