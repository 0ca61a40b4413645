(* Costs as values (see cost.mli). A charge keeps the readers of the
   terms its name lists, resolved once when it is built.

   A charge whose terms read the machine alone also keeps its amount on
   each backend's machine ([presets]), found by a pointer compare: every
   exit pays a few dozen charges, and reading the terms through their
   closures each time cost tpcc 8% of its throughput. [Cost_model.t] is
   immutable, so the amounts are exact; another machine (an ablation's
   variant) reads the terms on every charge. *)

module Time = Svt_engine.Time
module Cost_model = Svt_arch.Cost_model

(* A term's amount, from the machine, the exit's profile and the count a
   per-item term scales by. *)
type amount = Cost_model.t -> Cost_model.profile -> int -> Time.t

type charge = {
  bucket : Breakdown.bucket;
  name : string;
  terms : amount list;
  presets : (Cost_model.t * Time.t) list; (* [] if a term reads the exit *)
}

type t = charge list

(* [X.half] is half of [X] rounded down, [X.rest] the remainder. *)
let half x = Time.of_ns (Time.to_ns x / 2)
let rest x = Time.sub x (half x)

(* The terms that read the exit, not the machine alone. *)
let exit_terms : (string * amount) list =
  [ ("l0_pure", fun _ p _ -> p.Cost_model.l0_pure);
    ("l1_pure.half", fun _ p _ -> half p.Cost_model.l1_pure);
    ("l1_pure.rest", fun _ p _ -> rest p.Cost_model.l1_pure);
    ("transform_per_field*fields", fun c _ n ->
        Time.scale c.Cost_model.transform_per_field (float_of_int n)) ]

(* Every other term a charge may name. *)
let terms : (string * amount) list =
  let open Cost_model in
  [ ("trap_hw", fun c _ _ -> c.trap_hw); ("resume_hw", fun c _ _ -> c.resume_hw);
    ("l1_world_extra", fun c _ _ -> c.l1_world_extra);
    ("thread_switch", fun c _ _ -> c.thread_switch); ("vmptrld", fun c _ _ -> c.vmptrld);
    ("transform_base", fun c _ _ -> c.transform_base);
    ("l0_reflect_decision", fun c _ _ -> c.l0_reflect_decision);
    ("l0_inject_exit_info", fun c _ _ -> c.l0_inject_exit_info);
    ("l0_emulate_vmentry", fun c _ _ -> c.l0_emulate_vmentry);
    ("l0_emulate_aux", fun c _ _ -> c.l0_emulate_aux);
    ("l0_ctx_mgmt_l2.half", fun c _ _ -> half c.l0_ctx_mgmt_l2);
    ("l0_ctx_mgmt_l2.rest", fun c _ _ -> rest c.l0_ctx_mgmt_l2);
    ("l0_ctx_mgmt_l1.half", fun c _ _ -> half c.l0_ctx_mgmt_l1);
    ("l0_ctx_mgmt_l1.rest", fun c _ _ -> rest c.l0_ctx_mgmt_l1);
    ("ctx_mgmt_single", fun c _ _ -> c.ctx_mgmt_single);
    ("ctxt_reg_access*ctxt_regs_per_switch", fun c _ _ ->
        Time.scale c.ctxt_reg_access (float_of_int c.ctxt_regs_per_switch));
    ("ring_write", fun c _ _ -> c.ring_write); ("ring_read", fun c _ _ -> c.ring_read);
    ("poll_check", fun c _ _ -> c.poll_check); ("mwait_wake", fun c _ _ -> c.mwait_wake);
    ("mutex_wake", fun c _ _ -> c.mutex_wake);
    ("sw_prepare_resume", fun c _ _ -> c.sw_prepare_resume);
    ("line_transfer_smt", fun c _ _ -> c.line_transfer_smt);
    ("line_transfer_core", fun c _ _ -> c.line_transfer_core);
    ("line_transfer_numa", fun c _ _ -> c.line_transfer_numa);
    ("ooh_delegated_dispatch", fun c _ _ -> c.ooh_delegated_dispatch);
    ("ooh_vmcs_access", fun c _ _ -> c.ooh_vmcs_access);
    ("ooh_delegation_setup", fun c _ _ -> c.ooh_delegation_setup);
    ("svt_sysreg_direct", fun c _ _ -> Option.value c.svt_sysreg_direct ~default:Time.zero);
    ("full_nesting_aux_access", fun _ _ _ -> full_nesting_aux_access);
    ("userspace_bounce", fun _ _ _ -> userspace_bounce);
    ("l1_entry_fail_fixup", fun _ _ _ -> l1_entry_fail_fixup);
    ("l1_delegation_fault_fixup", fun _ _ _ -> l1_delegation_fault_fixup);
    ("mwait_enter", fun _ _ _ -> mwait_enter); ("mutex_enter", fun _ _ _ -> mutex_enter) ]

let rec sum c p n acc = function
  | [] -> acc
  | f :: fs -> sum c p n (Time.add acc (f c p n)) fs

let no_exit =
  { Cost_model.l0_pure = Time.zero; l1_pure = Time.zero; l1_aux_exits = 0;
    userspace = false }

let presets = List.map Svt_arch.Backend.cost_of Svt_arch.Backend.all

let charge bucket name =
  let names = String.split_on_char '+' name in
  let reader t =
    match List.assoc_opt t (exit_terms @ terms) with
    | Some f -> f
    | None -> invalid_arg ("Cost.charge: no term " ^ t)
  in
  let terms = List.map reader names in
  let presets =
    if List.exists (fun t -> List.mem_assoc t exit_terms) names then []
    else List.map (fun c -> (c, sum c no_exit 0 Time.zero terms)) presets
  in
  { bucket; name; terms; presets }

let rec amount c p n ch = function
  | (machine, a) :: more -> if machine == c then a else amount c p n ch more
  | [] -> sum c p n Time.zero ch.terms

let rec apply bd c p n = function
  | [] -> ()
  | ch :: more ->
      Breakdown.charge bd ch.bucket (amount c p n ch ch.presets);
      apply bd c p n more

let rec total c p n acc = function
  | [] -> acc
  | ch :: more -> total c p n (Time.add acc (amount c p n ch ch.presets)) more

let total c p n v = total c p n Time.zero v

let tag v = ("cost", String.concat "+" (List.map (fun ch -> ch.name) v))

