(* VM-entry consistency checks, per the architecture's rule that an entry
   with invalid state or controls must fail rather than launch the guest.
   L0 runs these on vmcs02 after every transform; tests use them to show
   that a malformed vmcs12 from a (buggy or malicious) L1 cannot reach
   hardware.

   Each failure names the offending field so callers can act on it: the
   nested-virtualization layer reflects the failure to L1 as a VM-entry
   failure and the fault-injection harness repairs the field to continue
   the run ([repair]). *)

type failure =
  | Invalid_host_state of Field.t * string
  | Invalid_guest_state of Field.t * string
  | Invalid_control of Field.t * string
  | Invalid_svt_context of Field.t * string

let pp_failure ppf = function
  | Invalid_host_state (_, s) -> Fmt.pf ppf "invalid host state: %s" s
  | Invalid_guest_state (_, s) -> Fmt.pf ppf "invalid guest state: %s" s
  | Invalid_control (_, s) -> Fmt.pf ppf "invalid control: %s" s
  | Invalid_svt_context (_, s) -> Fmt.pf ppf "invalid SVt context: %s" s

let offending_field = function
  | Invalid_host_state (f, _)
  | Invalid_guest_state (f, _)
  | Invalid_control (f, _)
  | Invalid_svt_context (f, _) ->
      f

let check_bit v bit = Int64.logand v (Int64.shift_left 1L bit) <> 0L

(* The rules add their failures newest-first to a list threaded through
   them ([|>] is applied in place, and a failure with constant arguments
   is a static constant), so a clean entry builds nothing and returns
   the constant [Ok ()]. *)
let fail_if cond failure errs = if cond then failure :: errs else errs

let svt_context_errors ~n_hw_contexts vmcs name f errs =
  let v = Int64.to_int (Vmcs.peek vmcs f) in
  if v <> -1 && (v < 0 || v >= n_hw_contexts) then
    Invalid_svt_context
      (f, Printf.sprintf "%s = %d out of range [0, %d)" name v n_hw_contexts)
    :: errs
  else errs

(* CR0.PE (bit 0) and CR0.PG (bit 31) must be set for long-mode guests;
   CR4.VMXE (bit 13) must be set on hosts that run VMX. Field validity is
   queried through the backend ([Field.valid_for]): on ARM NV/VHE the
   link-pointer and SVt checks vanish because those fields do not exist in
   the memory-backed sysreg image, and the VMXE check is replaced by the
   backend's own EL2-enable gate (HCR_EL2.NV, modelled at world switch
   rather than here). *)
let run ?(arch = Svt_arch.Backend.default) ?(n_hw_contexts = 2) vmcs =
  let guest_cr0 = Vmcs.peek vmcs Field.Guest_cr0 in
  let link = Vmcs.peek vmcs Field.Vmcs_link_pointer in
  let errs =
    []
    |> fail_if (not (check_bit guest_cr0 0))
         (Invalid_guest_state (Field.Guest_cr0, "CR0.PE clear"))
    |> fail_if (not (check_bit guest_cr0 31))
         (Invalid_guest_state (Field.Guest_cr0, "CR0.PG clear"))
    |> fail_if
         (arch = Svt_arch.Backend.X86
         && not (check_bit (Vmcs.peek vmcs Field.Host_cr4) 13))
         (Invalid_host_state (Field.Host_cr4, "CR4.VMXE clear"))
    |> fail_if (Vmcs.peek vmcs Field.Host_rip = 0L)
         (Invalid_host_state (Field.Host_rip, "HOST_RIP is null"))
    |> fail_if
         (Field.valid_for arch Field.Vmcs_link_pointer
         && link <> 0L
         && Int64.logand link 0xFFFL <> 0L)
         (Invalid_control
            (Field.Vmcs_link_pointer, "VMCS link pointer not page-aligned"))
  in
  (* SVt fields: target contexts must be within the core or the invalid
     sentinel (all-ones in the field encoding; we use -1). *)
  let errs =
    if Field.valid_for arch Field.Svt_visor then begin
      let visor = Int64.to_int (Vmcs.peek vmcs Field.Svt_visor) in
      let vm = Int64.to_int (Vmcs.peek vmcs Field.Svt_vm) in
      errs
      |> svt_context_errors ~n_hw_contexts vmcs "SVt_visor" Field.Svt_visor
      |> svt_context_errors ~n_hw_contexts vmcs "SVt_vm" Field.Svt_vm
      |> svt_context_errors ~n_hw_contexts vmcs "SVt_nested" Field.Svt_nested
      (* SVt_visor and SVt_vm must differ when both valid: a VM cannot
         share a hardware context with its hypervisor. *)
      |> fail_if
           (visor <> -1 && vm <> -1 && visor = vm)
           (Invalid_svt_context (Field.Svt_vm, "SVt_visor equals SVt_vm"))
    end
    else errs
  in
  match errs with [] -> Ok () | es -> Error (List.rev es)

(* The value [init_minimal] would give the offending field: the known-good
   state the repair path resets to. *)
let default_value = function
  | Field.Guest_cr0 | Field.Host_cr0 -> 0x80000001L (* PG | PE *)
  | Field.Guest_cr4 | Field.Host_cr4 -> 0x2000L (* VMXE *)
  | Field.Host_rip -> 0xFFFFFFFF81000000L
  | Field.Svt_visor | Field.Svt_vm | Field.Svt_nested -> -1L
  | _ -> 0L

let repair vmcs failure =
  let f = offending_field failure in
  Vmcs.write vmcs f (default_value f)

(* Populate the fields a well-formed hypervisor always sets, so tests and
   builders start from a passing configuration. *)
let init_minimal vmcs =
  Vmcs.write vmcs Field.Guest_cr0 0x80000001L (* PG | PE *);
  Vmcs.write vmcs Field.Guest_cr4 0x2000L;
  Vmcs.write vmcs Field.Host_cr0 0x80000001L;
  Vmcs.write vmcs Field.Host_cr4 0x2000L (* VMXE *);
  Vmcs.write vmcs Field.Host_rip 0xFFFFFFFF81000000L;
  Vmcs.write vmcs Field.Guest_rip 0x400000L;
  Vmcs.write vmcs Field.Svt_visor (-1L);
  Vmcs.write vmcs Field.Svt_vm (-1L);
  Vmcs.write vmcs Field.Svt_nested (-1L)
