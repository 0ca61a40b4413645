(** The vmcs12 ↔ vmcs02 transformations of paper §2.1/§2.2 (Algorithm 1
    step ②): L0 emulates the virtualization hardware it exposes to L1,
    so before running L2 it turns L1's descriptor into one valid on real
    hardware, and after L2 exits it reflects hardware-written state back.

    Two things make this expensive and non-shadowable: physical pointers
    in vmcs12 are L1-guest-physical and must be translated through L1's
    EPT, and execution controls must be merged with L0's own trap
    policy. *)

type result = {
  fields_copied : int;
  pointers_translated : int;
  controls_merged : int;
}

exception Invalid_pointer of Field.t * int64
(** A pointer field of vmcs12 does not map in L1's EPT — a malformed (or
    malicious) guest hypervisor configuration. *)

val l0_forced_controls : int64
(** Control bits L0 always forces on in vmcs02 regardless of vmcs12
    (§2.1: e.g. L0 keeps virtualizing the TSC deadline even if L1 would
    pass it through). *)

val entry :
  vmcs12:Vmcs.t ->
  vmcs02:Vmcs.t ->
  l1_ept:Svt_mem.Ept.t ->
  l0_ept_pointer:int64 ->
  result
(** Build/refresh vmcs02 from vmcs12 before resuming L2: copy the dirty
    fields newest first (so of several invalid pointer fields, the
    newest raises {!Invalid_pointer}), translating pointers through
    [l1_ept], installing [l0_ept_pointer] (the shadow EPT L0 maintains
    for L2) and merging controls. Cleans vmcs12. *)

val exit : vmcs02:Vmcs.t -> vmcs12:Vmcs.t -> result
(** Reflect hardware-written exit information and guest state from vmcs02
    into vmcs12 after an L2 exit, so L1 sees the trap as if its own
    hardware had taken it. *)

val span_tags :
  direction:string -> result -> (string * string) list -> (string * string) list
(** The transform's work amounts as span tags for the observability
    layer ([dir]/[fields]/[pointers]/[controls]), ahead of the given
    tags; [direction] is ["entry"] or ["exit"]. The cost a transform
    charges is the nested path's: [transform_base] plus
    [transform_per_field] per copied field. *)
