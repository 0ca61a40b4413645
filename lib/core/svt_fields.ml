(* The SVt architectural extension surface (paper Table 2): three VMCS
   fields naming hardware contexts, the ctxtld/ctxtst instructions, and
   the per-core µ-registers caching the fields. This module carries the
   descriptive inventory (printed by the bench harness as Table 2) and the
   helpers hypervisor code uses to program the fields. *)

module Field = Svt_vmcs.Field
module Vmcs = Svt_vmcs.Vmcs
module Smt_core = Svt_arch.Smt_core

type kind = Vmcs_field | Instruction | Micro_register

type descriptor = { name : string; kind : kind; purpose : string }

(* Table 2 verbatim. *)
let table2 =
  [
    { name = "SVt_visor"; kind = Vmcs_field;
      purpose = "Target context for host hypervisor." };
    { name = "SVt_vm"; kind = Vmcs_field;
      purpose = "Target context for guest VM." };
    { name = "SVt_nested"; kind = Vmcs_field;
      purpose = "Target context for nested cross-context register accesses." };
    { name = "ctxtld lvl ..."; kind = Instruction;
      purpose = "Read reg. from another context." };
    { name = "ctxtst lvl ..."; kind = Instruction;
      purpose = "Write reg. to another context." };
    { name = "SVt_current"; kind = Micro_register;
      purpose = "Target context to fetch instructions from." };
    { name = "SVt_visor/SVt_vm/SVt_nested"; kind = Micro_register;
      purpose = "Cached versions of the VMCS fields above." };
    { name = "is_vm"; kind = Micro_register;
      purpose =
        "Whether we are executing inside a VM. Already present in existing \
         processors." };
  ]

let kind_name = function
  | Vmcs_field -> "VMCS field"
  | Instruction -> "Instruction"
  | Micro_register -> "u-register"

let invalid = Smt_core.invalid_ctx

(* Program a VMCS's SVt fields. *)
let set_contexts vmcs ~visor ~vm ~nested =
  Vmcs.write vmcs Field.Svt_visor (Int64.of_int visor);
  Vmcs.write vmcs Field.Svt_vm (Int64.of_int vm);
  Vmcs.write vmcs Field.Svt_nested (Int64.of_int nested)

let visor vmcs = Int64.to_int (Vmcs.peek vmcs Field.Svt_visor)
let vm vmcs = Int64.to_int (Vmcs.peek vmcs Field.Svt_vm)

(* VMPTRLD: load the cached µ-registers from the VMCS (paper §4 step B). *)
let vmptrld core vmcs =
  Smt_core.load_svt_fields core ~visor:(visor vmcs) ~vm:(vm vmcs)
