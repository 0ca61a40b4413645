(* A VM state descriptor (VMCS in Intel terms). Each vCPU of each guest VM
   has one per managing hypervisor level, following the paper's naming:
   vmcs01 (L0's descriptor for L1), vmcs01' (L1's own descriptor for L2,
   which L0 sees as vmcs12), and vmcs02 (L0's descriptor used to actually
   run L2). Dirty-field tracking feeds the transform cost model: only
   fields written since the last transform need to be copied/translated. *)

module Fmap = Map.Make (Field)

type role = {
  owner_level : int; (* hypervisor level managing this VMCS *)
  subject_level : int; (* VM level it represents *)
}

type t = {
  role : role;
  label : string; (* e.g. "vmcs02" or "vmcs01'" *)
  mutable fields : int64 Fmap.t;
  mutable dirty : Field.t list; (* fields written since last clean *)
  mutable launched : bool; (* VMLAUNCH happened (vs VMRESUME) *)
  mutable current : bool; (* loaded by VMPTRLD on some CPU *)
}

let label_for role =
  Printf.sprintf "vmcs%d%d" role.owner_level role.subject_level

let create ?label ~owner_level ~subject_level () =
  (* vmcs01, vmcs12 describe the next level down; vmcs02 (owner 0,
     subject 2) is L0's descriptor that actually runs the nested VM. *)
  if subject_level <= owner_level then
    invalid_arg "Vmcs.create: subject level must be below the owner";
  let role = { owner_level; subject_level } in
  {
    role;
    label = (match label with Some l -> l | None -> label_for role);
    fields = Fmap.empty;
    dirty = [];
    launched = false;
    current = false;
  }

let label t = t.label

let read t f = Option.value ~default:0L (Fmap.find_opt f t.fields)

(* The same read, for internal bookkeeping paths. *)
let peek = read

let write t f v =
  t.fields <- Fmap.add f v t.fields;
  if not (List.exists (Field.equal f) t.dirty) then t.dirty <- f :: t.dirty

let dirty_fields t = t.dirty
let clean t = t.dirty <- []
let set_launched t b = t.launched <- b
let set_current t b = t.current <- b

(* Record exit information, as the hardware does on a VM trap. *)
let record_exit t ~reason ~qualification ~instruction_length =
  write t Field.Exit_reason
    (Int64.of_int (Svt_arch.Exit_reason.basic_number reason));
  write t Field.Exit_qualification qualification;
  write t Field.Instruction_length (Int64.of_int instruction_length)
