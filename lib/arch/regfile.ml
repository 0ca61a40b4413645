(* Shared physical register file with per-context rename maps.

   This mirrors the SMT structure the paper leans on (§4): all hardware
   contexts of a core share one physical register file; each context owns a
   rename map from architectural register names to physical entries. A
   cross-context access (SVt's ctxtld/ctxtst) therefore indexes the
   *target* context's rename map and reads or writes the shared file —
   no memory traffic, no extra ports, because only one context executes at
   a time under SVt.

   The rename maps are dense: one flat int array holds every context's
   entries for the switched set, indexed by [Reg.slot]. Registers outside
   the switched set only get an entry when renamed in, and live in a short
   per-context association list. *)

type phys_index = int

let slots = Reg.switched_count

type t = {
  entries : int64 array;
  (* Free physical entries as a FIFO ring: [free_count] of them, oldest
     at [free_head]. Entries are conserved, so the ring never overflows. *)
  ring : phys_index array;
  mutable free_head : int;
  mutable free_count : int;
  maps : phys_index array; (* context [c]'s slot [s] at [c * slots + s] *)
  extra : (Reg.t * phys_index) list array;
}

let create ~contexts ~physical_entries =
  if physical_entries < contexts * slots then
    invalid_arg "Regfile.create: physical file too small for all contexts";
  (* Every context starts with the switched set mapped, as hardware does
     at reset: context [c] takes entries [c * slots ..], in
     [Reg.switched_set] order. *)
  let mapped = contexts * slots in
  {
    entries = Array.make physical_entries 0L;
    ring = Array.init physical_entries Fun.id;
    free_head = (if mapped < physical_entries then mapped else 0);
    free_count = physical_entries - mapped;
    maps = Array.init mapped Fun.id;
    extra = Array.make contexts [];
  }

let context_count t = Array.length t.extra

let check_ctx t ctx =
  if ctx < 0 || ctx >= Array.length t.extra then
    invalid_arg "Regfile: bad context index"

let phys_of t ~ctx reg =
  check_ctx t ctx;
  let s = Reg.slot reg in
  if s >= 0 then t.maps.((ctx * slots) + s)
  else
    match List.assoc_opt reg t.extra.(ctx) with
    | Some idx -> idx
    | None -> invalid_arg ("Regfile: unmapped register " ^ Reg.name reg)

let read t ~ctx reg = t.entries.(phys_of t ~ctx reg)
let write t ~ctx reg v = t.entries.(phys_of t ~ctx reg) <- v

let push_free t idx =
  let n = Array.length t.ring in
  t.ring.((t.free_head + t.free_count) mod n) <- idx;
  t.free_count <- t.free_count + 1

(* Rename: allocate a fresh physical entry for [reg] in [ctx] (as an
   out-of-order core would on each writing instruction), freeing the old
   one to the back of the free list. Exercised by tests to show
   cross-context reads still resolve through the current map. *)
let rename t ~ctx reg =
  check_ctx t ctx;
  if t.free_count = 0 then None
  else begin
    let idx = t.ring.(t.free_head) in
    t.free_head <- (t.free_head + 1) mod Array.length t.ring;
    t.free_count <- t.free_count - 1;
    let s = Reg.slot reg in
    let old =
      if s >= 0 then Some t.maps.((ctx * slots) + s)
      else List.assoc_opt reg t.extra.(ctx)
    in
    (match old with
    | Some o ->
        t.entries.(idx) <- t.entries.(o);
        push_free t o
    | None -> ());
    if s >= 0 then t.maps.((ctx * slots) + s) <- idx
    else t.extra.(ctx) <- (reg, idx) :: List.remove_assoc reg t.extra.(ctx);
    Some idx
  end

let free_entries t = t.free_count

(* Copy the whole switched set between contexts through the register file
   (what SVt's ctxtld/ctxtst loop does when a hypervisor populates a
   subordinate VM's context). *)
let copy_switched_set t ~from_ctx ~to_ctx =
  check_ctx t from_ctx;
  check_ctx t to_ctx;
  for s = 0 to slots - 1 do
    t.entries.(t.maps.((to_ctx * slots) + s)) <-
      t.entries.(t.maps.((from_ctx * slots) + s))
  done
