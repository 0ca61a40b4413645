(* Model-specific registers the workloads and hypervisors touch. Every
   guest rdmsr/wrmsr traps, which is how timer re-arming
   (IA32_TSC_DEADLINE) becomes the MSR_WRITE exit traffic the paper
   profiles in §6.3.1 and §6.3.3. *)

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

(* A per-context MSR file. *)
module File = struct
  type msr = t
  type t = (int, int64) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let read (f : t) (m : msr) = Option.value ~default:0L (Hashtbl.find_opt f (encode m))
  let write (f : t) (m : msr) v = Hashtbl.replace f (encode m) v
end
