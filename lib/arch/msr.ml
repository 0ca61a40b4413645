(* Model-specific registers the workloads and hypervisors touch. Access to
   most of them from a guest triggers a VM trap unless the MSR bitmap says
   otherwise, which is how timer re-arming (IA32_TSC_DEADLINE) becomes the
   MSR_WRITE exit traffic the paper profiles in §6.3.1 and §6.3.3. *)

type t =
  | Ia32_tsc
  | Ia32_tsc_deadline
  | Ia32_apic_base
  | Ia32_efer
  | Ia32_sysenter_cs
  | Ia32_sysenter_esp
  | Ia32_sysenter_eip
  | Ia32_star
  | Ia32_lstar
  | Ia32_gs_base
  | Ia32_kernel_gs_base
  | Ia32_spec_ctrl
  | Ia32_pred_cmd
  | Other of int

let encode = function
  | Ia32_tsc -> 0x10
  | Ia32_tsc_deadline -> 0x6E0
  | Ia32_apic_base -> 0x1B
  | Ia32_efer -> 0xC0000080
  | Ia32_sysenter_cs -> 0x174
  | Ia32_sysenter_esp -> 0x175
  | Ia32_sysenter_eip -> 0x176
  | Ia32_star -> 0xC0000081
  | Ia32_lstar -> 0xC0000082
  | Ia32_gs_base -> 0xC0000101
  | Ia32_kernel_gs_base -> 0xC0000102
  | Ia32_spec_ctrl -> 0x48
  | Ia32_pred_cmd -> 0x49
  | Other n -> n

let of_code = function
  | 0x10 -> Ia32_tsc
  | 0x6E0 -> Ia32_tsc_deadline
  | 0x1B -> Ia32_apic_base
  | 0xC0000080 -> Ia32_efer
  | 0x174 -> Ia32_sysenter_cs
  | 0x175 -> Ia32_sysenter_esp
  | 0x176 -> Ia32_sysenter_eip
  | 0xC0000081 -> Ia32_star
  | 0xC0000082 -> Ia32_lstar
  | 0xC0000101 -> Ia32_gs_base
  | 0xC0000102 -> Ia32_kernel_gs_base
  | 0x48 -> Ia32_spec_ctrl
  | 0x49 -> Ia32_pred_cmd
  | n -> Other n

let name m =
  match m with
  | Ia32_tsc -> "IA32_TSC"
  | Ia32_tsc_deadline -> "IA32_TSC_DEADLINE"
  | Ia32_apic_base -> "IA32_APIC_BASE"
  | Ia32_efer -> "IA32_EFER"
  | Ia32_sysenter_cs -> "IA32_SYSENTER_CS"
  | Ia32_sysenter_esp -> "IA32_SYSENTER_ESP"
  | Ia32_sysenter_eip -> "IA32_SYSENTER_EIP"
  | Ia32_star -> "IA32_STAR"
  | Ia32_lstar -> "IA32_LSTAR"
  | Ia32_gs_base -> "IA32_GS_BASE"
  | Ia32_kernel_gs_base -> "IA32_KERNEL_GS_BASE"
  | Ia32_spec_ctrl -> "IA32_SPEC_CTRL"
  | Ia32_pred_cmd -> "IA32_PRED_CMD"
  | Other n -> Printf.sprintf "MSR_%#x" n

(* A per-context MSR file. *)
module File = struct
  type msr = t
  type t = (int, int64) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let read (f : t) (m : msr) = Option.value ~default:0L (Hashtbl.find_opt f (encode m))
  let write (f : t) (m : msr) v = Hashtbl.replace f (encode m) v
end

(* MSR intercept bitmap: which MSR accesses trap. Hypervisors typically
   allow direct TSC reads but intercept TSC_DEADLINE writes. *)
module Bitmap = struct
  type msr = t
  type t = { mutable pass_read : int list; mutable pass_write : int list }

  let intercept_all () = { pass_read = []; pass_write = [] }

  let allow_read t (m : msr) = t.pass_read <- encode m :: t.pass_read
  let allow_write t m = t.pass_write <- encode m :: t.pass_write
  let read_traps t m = not (List.mem (encode m) t.pass_read)
  let write_traps t m = not (List.mem (encode m) t.pass_write)

  (* KVM-like default: TSC reads pass through, everything else traps. *)
  let kvm_default () =
    let t = intercept_all () in
    allow_read t Ia32_tsc;
    allow_read t Ia32_gs_base;
    allow_write t Ia32_gs_base;
    t
end
