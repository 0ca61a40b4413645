(** VM-entry consistency checks: an entry with invalid state or controls
    must fail rather than launch the guest. L0 runs these on vmcs02 after
    transforms, so a malformed vmcs12 from a buggy or malicious L1 cannot
    reach hardware. Each failure names the offending field so the nested
    layer can reflect a VM-entry failure to L1 and the fault harness can
    {!repair} the field and continue. *)

type failure =
  | Invalid_host_state of Field.t * string
  | Invalid_guest_state of Field.t * string
  | Invalid_control of Field.t * string
  | Invalid_svt_context of Field.t * string
      (** SVt fields out of range, or SVt_visor = SVt_vm *)

val pp_failure : Format.formatter -> failure -> unit

val offending_field : failure -> Field.t

val run :
  ?arch:Svt_arch.Backend.kind ->
  ?n_hw_contexts:int ->
  Vmcs.t ->
  (unit, failure list) result
(** All failures are reported, not just the first. [n_hw_contexts]
    bounds the valid SVt context indices (default 2). [arch] (default
    {!Svt_arch.Backend.default}, i.e. x86) selects which checks apply:
    rules over fields that {!Field.valid_for} rejects on the backend
    (the VMCS link pointer and the SVt µ-registers on ARM NV/VHE) are
    skipped, as is the x86-only CR4.VMXE host check. *)

val repair : Vmcs.t -> failure -> unit
(** Reset the failure's offending field to its default value. *)

val init_minimal : Vmcs.t -> unit
(** Populate the fields a well-formed hypervisor always sets, so builders
    and tests start from a passing configuration. *)
