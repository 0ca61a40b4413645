(* VMCS shadowing policy: which vmcs01' fields the hardware lets L1 access
   directly (reads/writes land in the shadow VMCS without trapping) versus
   which still trap into L0.

   Mirrors the paper's observation (§2.1, §2.3): recent Intel CPUs shadow
   *some* fields, but fields needing complicated handling — physical
   address translations, controls where L0 and L1 goals conflict — still
   trap. Those remaining traps are the "L1 exits during VM-exit handling"
   that nested virtualization cannot avoid without SVt. *)

type t = { shadowed : Field.t -> bool }

let hardware_shadowing_enabled =
  {
    shadowed =
      (fun f ->
        (* Plain guest-state and exit-information fields shadow fine;
           physical pointers and controls do not. *)
        (Field.is_guest_state f || Field.is_exit_info f)
        && not (Field.is_physical_pointer f));
  }

let no_shadowing = { shadowed = (fun _ -> false) }

let shadowed t f = t.shadowed f
