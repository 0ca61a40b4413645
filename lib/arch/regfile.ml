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
   the switched set have no entry. *)

type phys_index = int

let slots = Reg.switched_count

type t = {
  entries : int64 array;
  contexts : int;
  maps : phys_index array; (* context [c]'s slot [s] at [c * slots + s] *)
}

let create ~contexts ~physical_entries =
  if physical_entries < contexts * slots then
    invalid_arg "Regfile.create: physical file too small for all contexts";
  (* Every context starts with the switched set mapped, as hardware does
     at reset: context [c] takes entries [c * slots ..], in
     [Reg.switched_set] order. *)
  {
    entries = Array.make physical_entries 0L;
    contexts;
    maps = Array.init (contexts * slots) Fun.id;
  }

let check_ctx t ctx =
  if ctx < 0 || ctx >= t.contexts then
    invalid_arg "Regfile: bad context index"

let phys_of t ~ctx reg =
  check_ctx t ctx;
  let s = Reg.slot reg in
  if s >= 0 then t.maps.((ctx * slots) + s)
  else invalid_arg ("Regfile: unmapped register " ^ Reg.name reg)

let read t ~ctx reg = t.entries.(phys_of t ~ctx reg)
let write t ~ctx reg v = t.entries.(phys_of t ~ctx reg) <- v

let gpr_slots = Array.of_list (List.map (fun g -> Reg.slot (Reg.Gpr g)) Reg.all_gprs)

let blit_gprs t ~ctx b ~off =
  check_ctx t ctx;
  let base = ctx * slots in
  for j = 0 to Array.length gpr_slots - 1 do
    Bytes.set_int64_le b (off + (8 * j)) t.entries.(t.maps.(base + gpr_slots.(j)))
  done
