(* Extended page tables: the second-dimension translation (guest-physical →
   host-physical) a hypervisor maintains per VM. Implemented as a real
   4-level radix tree over 9-bit indices, with per-entry permissions and a
   "misconfigured" marker.

   The misconfig marker reproduces how KVM implements virtio doorbells for
   MMIO regions: the region is deliberately left misconfigured so every
   guest store raises EPT_MISCONFIG — the exit reason the paper's profiles
   show dominating L0's time under I/O load (§6.2, §6.3).

   Leaf tables hold packed ints, as hardware EPT entries are packed
   words, so mapping a page allocates nothing: 0 is an empty entry; a
   mapped page sets [present], its read/write/exec bits and the host frame
   number above [frame_shift]; a misconfigured page sets only
   [misconfig], and its tag lives in a side table keyed by guest page. *)

type perm = { read : bool; write : bool; exec : bool }

let rwx = { read = true; write = true; exec = true }
let ro = { read = true; write = false; exec = false }

type access = Read | Write | Exec

type entry =
  | Page of { hpa : Addr.Hpa.t; perm : perm }
  | Misconfig of { tag : string } (* deliberate misconfiguration (MMIO) *)

type fault =
  | Violation of { gpa : Addr.Gpa.t; access : access }
  | Misconfiguration of { gpa : Addr.Gpa.t; tag : string }

(* Levels 3 and 2 hold [Dir]s; level 1 holds [Leaves], the level-0
   tables of packed entries. *)
type node = Empty | Dir of node array | Leaves of int array

type t = {
  root : node array;
  tags : (int, string) Hashtbl.t; (* guest page -> misconfig tag *)
  mutable mapped_pages : int;
}

let levels = 4
let bits_per_level = 9
let fanout = 1 lsl bits_per_level

(* Guest page numbers wrap at the 48 bits four levels index. *)
let page_number_mask = (1 lsl (bits_per_level * levels)) - 1

let present = 0b00001
let read_bit = 0b00010
let write_bit = 0b00100
let exec_bit = 0b01000
let misconfig = 0b10000
let frame_shift = 5

let perm_bits p =
  (if p.read then read_bit else 0)
  lor (if p.write then write_bit else 0)
  lor if p.exec then exec_bit else 0

let perms =
  Array.init 8 (fun i ->
      { read = i land 1 <> 0; write = i land 2 <> 0; exec = i land 4 <> 0 })

let access_bit = function
  | Read -> read_bit
  | Write -> write_bit
  | Exec -> exec_bit

let hpa_of_entry e = Addr.Hpa.of_int ((e lsr frame_shift) lsl Addr.page_shift)

let create () =
  {
    root = Array.make fanout Empty;
    tags = Hashtbl.create 8;
    mapped_pages = 0;
  }

let page_index gpa = Addr.Gpa.page_of gpa land page_number_mask
let index_at page level = (page lsr (bits_per_level * level)) land (fanout - 1)
let no_leaves : int array = [||]

(* The leaf table covering guest page [page], creating the directories on
   the way when [create] is set; [no_leaves] when absent. *)
let rec leaves_of dir page level ~create =
  let idx = index_at page level in
  match dir.(idx) with
  | Leaves l -> l
  | Dir d -> leaves_of d page (level - 1) ~create
  | Empty when not create -> no_leaves
  | Empty when level = 1 ->
      let l = Array.make fanout 0 in
      dir.(idx) <- Leaves l;
      l
  | Empty ->
      let d = Array.make fanout Empty in
      dir.(idx) <- Dir d;
      leaves_of d page (level - 1) ~create

let entry_at t page =
  let l = leaves_of t.root page (levels - 1) ~create:false in
  if l == no_leaves then 0 else l.(page land (fanout - 1))

(* Overwrite the entry at [l.(i)] (guest page [page]), keeping the page
   count and the tag table in step with what the slot held before. *)
let set t l i page e =
  let old = l.(i) in
  if old land present <> 0 then t.mapped_pages <- t.mapped_pages - 1;
  if old land misconfig <> 0 then Hashtbl.remove t.tags page;
  if e land present <> 0 then t.mapped_pages <- t.mapped_pages + 1;
  l.(i) <- e

(* Map a contiguous guest range onto the contiguous host run from [hpa]:
   one walk per leaf table, then an int loop over its entries. *)
let map_range t ~gpa ~len ~perm ~hpa =
  if not (Addr.Gpa.is_page_aligned gpa && Addr.Hpa.is_page_aligned hpa) then
    invalid_arg "Ept.map: unaligned";
  let pages = (len + Addr.page_size - 1) / Addr.page_size in
  let bits = present lor perm_bits perm in
  let first = page_index gpa and first_frame = Addr.Hpa.page_of hpa in
  let i = ref 0 in
  while !i < pages do
    let page = (first + !i) land page_number_mask in
    let l = leaves_of t.root page (levels - 1) ~create:true in
    let lo = page land (fanout - 1) in
    let n = Stdlib.min (pages - !i) (fanout - lo) in
    let e = bits lor ((first_frame + !i) lsl frame_shift) in
    for k = 0 to n - 1 do
      set t l (lo + k) (page + k) (e + (k lsl frame_shift))
    done;
    i := !i + n
  done

let map t ~gpa ~hpa ~perm = map_range t ~gpa ~len:Addr.page_size ~perm ~hpa

let mark_misconfig t ~gpa ~tag =
  if not (Addr.Gpa.is_page_aligned gpa) then invalid_arg "Ept.mark_misconfig";
  let page = page_index gpa in
  let l = leaves_of t.root page (levels - 1) ~create:true in
  set t l (page land (fanout - 1)) page misconfig;
  Hashtbl.replace t.tags page tag

let lookup t gpa =
  let page = page_index gpa in
  let e = entry_at t page in
  if e = 0 then None
  else if e land misconfig <> 0 then Some (Misconfig { tag = Hashtbl.find t.tags page })
  else Some (Page { hpa = hpa_of_entry e; perm = perms.((e lsr 1) land 7) })

(* The hit path of every guest-memory access: one walk, two bit tests, no
   allocation. A misconfigured entry carries no access bits, so it fails
   the permission test like an absent one. *)
let resolve t ~gpa ~access =
  let e = entry_at t (page_index gpa) in
  if e land access_bit access <> 0 then
    ((e lsr frame_shift) lsl Addr.page_shift) lor Addr.Gpa.offset gpa
  else -1

(* Translate a guest-physical address for a given access, returning either
   the host-physical address or the architectural fault. *)
let translate t ~gpa ~access =
  let h = resolve t ~gpa ~access in
  if h >= 0 then Ok (Addr.Hpa.of_int h)
  else
    let page = page_index gpa in
    if entry_at t page land misconfig <> 0 then
      Error (Misconfiguration { gpa; tag = Hashtbl.find t.tags page })
    else Error (Violation { gpa; access })

let unmap t ~gpa =
  let page = page_index gpa in
  let l = leaves_of t.root page (levels - 1) ~create:false in
  if l != no_leaves then set t l (page land (fanout - 1)) page 0

let mapped_pages t = t.mapped_pages

let pp_fault ppf = function
  | Violation { gpa; access } ->
      Fmt.pf ppf "EPT violation at %a (%s)" Addr.Gpa.pp gpa
        (match access with Read -> "read" | Write -> "write" | Exec -> "exec")
  | Misconfiguration { gpa; tag } ->
      Fmt.pf ppf "EPT misconfig at %a (%s)" Addr.Gpa.pp gpa tag
