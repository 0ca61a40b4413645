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
   [misconfig], and its tag lives in a side table keyed by guest page.

   A level-1 slot may instead hold a 2 MB entry, packed like a leaf entry
   with the first of its 512 host frames, as hardware and KVM map
   hugepage-backed guest RAM. [map_range] writes one for a whole aligned
   block into an empty slot; a 4 KB write inside it first splits it into
   the leaf table of its 512 entries, so reads see the same entries either
   way.

   Every other table is sized to the highest slot written so far, not to
   its 512 slots: it starts at [floor] slots and doubles on a write past
   its end, and a read past its end is an empty entry. A VM's tables then
   stay small enough for the minor heap. *)

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
   tables of packed entries, or [Huge] 2 MB entries. *)
type node = Empty | Dir of node array | Leaves of int array | Huge of int

type t = {
  mutable root : node array; (* grown like any other table *)
  tags : (int, string) Hashtbl.t; (* guest page -> misconfig tag *)
  mutable mapped_pages : int;
}

let levels = 4
let bits_per_level = 9
let fanout = 1 lsl bits_per_level

(* Slots in a new table; tables double from here up to [fanout]. *)
let floor = 8

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

let create () = { root = [||]; tags = Hashtbl.create 8; mapped_pages = 0 }

let page_index gpa = Addr.Gpa.page_of gpa land page_number_mask
let index_at page level = (page lsr (bits_per_level * level)) land (fanout - 1)
let no_dir : node array = [||]

(* [a] itself if it has slot [idx], else a copy doubled from [floor] until
   it does, its new slots [fill]. [idx < fanout], so it stops at [fanout]. *)
let widen a idx fill =
  if idx < Array.length a then a
  else begin
    let n = ref (Stdlib.max floor (Array.length a)) in
    while !n <= idx do
      n := 2 * !n
    done;
    let b = Array.make !n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Slot [idx] of a directory; [Empty] past its end. *)
let slot dir idx = if idx < Array.length dir then Array.unsafe_get dir idx else Empty

(* The level-1 directory covering guest page [page] below [dir]; [no_dir]
   when absent. With [create], the directories on the way are made or
   widened so that each has the slot [page] indexes; [dir] must already
   have its own. *)
let rec dir_below dir page level ~create =
  if level = 1 then dir
  else
    let idx = index_at page level and below = index_at page (level - 1) in
    match slot dir idx with
    | Dir d when create ->
        let d' = widen d below Empty in
        if d' != d then dir.(idx) <- Dir d';
        dir_below d' page (level - 1) ~create
    | Dir d -> dir_below d page (level - 1) ~create
    | Empty when create ->
        let d = widen no_dir below Empty in
        dir.(idx) <- Dir d;
        dir_below d page (level - 1) ~create
    | Empty | Leaves _ | Huge _ -> no_dir

let dir_of t page ~create =
  if create then t.root <- widen t.root (index_at page (levels - 1)) Empty;
  dir_below t.root page (levels - 1) ~create

(* The packed entry of guest page [page]; 0 when nothing maps it. One
   length compare per level stands in for the bounds check, and reads
   past a table's end as empty. *)
let rec entry_in dir page level =
  let idx = index_at page level in
  if idx < Array.length dir then
    match Array.unsafe_get dir idx with
    | Dir d -> entry_in d page (level - 1)
    | Leaves l ->
        let i = page land (fanout - 1) in
        if i < Array.length l then Array.unsafe_get l i else 0
    | Huge e -> e + ((page land (fanout - 1)) lsl frame_shift)
    | Empty -> 0
  else 0

let entry_at t page = entry_in t.root page (levels - 1)

(* The leaf table in slot [idx] of level-1 directory [d], with entry [hi]:
   a new or widened one, or a 2 MB entry split into its 512 entries. *)
let leaves_at d idx ~hi =
  match d.(idx) with
  | Leaves l ->
      let l' = widen l hi 0 in
      if l' != l then d.(idx) <- Leaves l';
      l'
  | Huge e ->
      let l = Array.init fanout (fun k -> e + (k lsl frame_shift)) in
      d.(idx) <- Leaves l;
      l
  | Empty | Dir _ ->
      let l = widen [||] hi 0 in
      d.(idx) <- Leaves l;
      l

(* Overwrite the entry at [l.(i)] (guest page [page]), keeping the page
   count and the tag table in step with what the slot held before. *)
let set t l i page e =
  let old = l.(i) in
  if old land present <> 0 then t.mapped_pages <- t.mapped_pages - 1;
  if old land misconfig <> 0 then Hashtbl.remove t.tags page;
  if e land present <> 0 then t.mapped_pages <- t.mapped_pages + 1;
  l.(i) <- e

(* Write entry [e] for one guest page; writing 0 where nothing is mapped
   creates or widens nothing. *)
let write t page e =
  let d = dir_of t page ~create:(e <> 0) in
  let idx = index_at page 1 and i = page land (fanout - 1) in
  match slot d idx with
  | Empty when e = 0 -> ()
  | Leaves l when e = 0 && i >= Array.length l -> ()
  | Empty | Leaves _ | Huge _ | Dir _ -> set t (leaves_at d idx ~hi:i) i page e

(* Map a contiguous guest range onto the contiguous host run from [hpa]:
   one walk per leaf table, then a 2 MB entry for a whole aligned block
   over an empty slot, else an int loop over the table's entries. *)
let map_range t ~gpa ~len ~perm ~hpa =
  if not (Addr.Gpa.is_page_aligned gpa && Addr.Hpa.is_page_aligned hpa) then
    invalid_arg "Ept.map: unaligned";
  let pages = (len + Addr.page_size - 1) / Addr.page_size in
  let bits = present lor perm_bits perm in
  let first = page_index gpa and first_frame = Addr.Hpa.page_of hpa in
  let i = ref 0 in
  while !i < pages do
    let page = (first + !i) land page_number_mask in
    let d = dir_of t page ~create:true in
    let idx = index_at page 1 and lo = page land (fanout - 1) in
    let n = Stdlib.min (pages - !i) (fanout - lo) in
    let frame = first_frame + !i in
    let e = bits lor (frame lsl frame_shift) in
    if n = fanout && frame land (fanout - 1) = 0 && d.(idx) == Empty then begin
      d.(idx) <- Huge e;
      t.mapped_pages <- t.mapped_pages + fanout
    end
    else begin
      let l = leaves_at d idx ~hi:(lo + n - 1) in
      for k = 0 to n - 1 do
        set t l (lo + k) (page + k) (e + (k lsl frame_shift))
      done
    end;
    i := !i + n
  done

let map t ~gpa ~hpa ~perm = map_range t ~gpa ~len:Addr.page_size ~perm ~hpa

let mark_misconfig t ~gpa ~tag =
  if not (Addr.Gpa.is_page_aligned gpa) then invalid_arg "Ept.mark_misconfig";
  let page = page_index gpa in
  write t page misconfig;
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

let unmap t ~gpa = write t (page_index gpa) 0

let mapped_pages t = t.mapped_pages

let pp_fault ppf = function
  | Violation { gpa; access } ->
      Fmt.pf ppf "EPT violation at %a (%s)" Addr.Gpa.pp gpa
        (match access with Read -> "read" | Write -> "write" | Exec -> "exec")
  | Misconfiguration { gpa; tag } ->
      Fmt.pf ppf "EPT misconfig at %a (%s)" Addr.Gpa.pp gpa tag
