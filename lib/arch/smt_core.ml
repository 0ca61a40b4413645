(* SMT core model with the SVt extensions of paper §4 / Table 2.

   A core has [n] hardware contexts (SMT threads). Under SVt only one
   context fetches instructions at a time; the per-core µ-registers below
   decide which, and VM trap / VM resume events switch the fetch target by
   copying SVt_visor / SVt_vm into SVt_current. Context indices seen by a
   guest hypervisor are virtual; L0 virtualizes them through the SVt
   fields of the VMCS it runs that hypervisor on. *)

(* Per-core µ-registers (Table 2). [invalid_ctx] encodes the "invalid
   value" the paper stores in unused SVt fields. *)
let invalid_ctx = -1

type t = {
  id : int;
  n_contexts : int;
  regfile : Regfile.t;
  mutable svt_current : int;
  mutable svt_visor : int;
  mutable svt_vm : int;
  (* How many sibling contexts are actively consuming fetch/issue slots
     (e.g. a polling waiter in the SW prototype); drives the interference
     multiplier on compute time. *)
  mutable polling_siblings : int;
  mutable switches : int; (* stall/resume events, for tests/metrics *)
}

(* Physical register file size, grown if the contexts need more. *)
let physical_entries = 168

let create ?(n_contexts = 2) ~id () =
  if n_contexts < 1 then invalid_arg "Smt_core.create";
  {
    id;
    n_contexts;
    regfile =
      Regfile.create ~contexts:n_contexts
        ~physical_entries:
          (max physical_entries (n_contexts * Reg.switched_count));
    svt_current = 0;
    svt_visor = 0;
    svt_vm = invalid_ctx;
    polling_siblings = 0;
    switches = 0;
  }

let id t = t.id
let n_contexts t = t.n_contexts
let regfile t = t.regfile
let current t = t.svt_current
let switches t = t.switches

let check_ctx t ctx =
  if ctx < 0 || ctx >= t.n_contexts then
    invalid_arg "Smt_core: bad hardware context index"

(* Load the cached µ-registers from a VMCS's SVt fields, as VMPTRLD does
   (paper §4 step B). *)
let load_svt_fields t ~visor ~vm =
  t.svt_visor <- visor;
  t.svt_vm <- vm

(* SVt_current is the whole fetch state: every other context is
   stalled. *)
let activate t ctx =
  check_ctx t ctx;
  if t.svt_current <> ctx then t.switches <- t.switches + 1;
  t.svt_current <- ctx

(* A VM resume event: stall the current context and start fetching from
   SVt_vm (paper §4 step C). *)
let vm_resume t =
  if t.svt_vm = invalid_ctx then invalid_arg "Smt_core.vm_resume: no SVt_vm";
  activate t t.svt_vm

(* A VM trap event: stall the current context and resume SVt_visor. *)
let vm_trap t =
  if t.svt_visor = invalid_ctx then
    invalid_arg "Smt_core.vm_trap: no SVt_visor";
  activate t t.svt_visor

(* SMT interference: while a sibling context spins (polling), the active
   thread loses issue slots. The multiplier model follows the qualitative
   §6.1 finding that polling "consumes execution cycles from the computing
   thread". *)
let set_polling_siblings t n = t.polling_siblings <- max 0 n

let interference_factor t = 1.0 +. (0.35 *. float_of_int t.polling_siblings)

let scale_compute t span = Svt_engine.Time.scale span (interference_factor t)
