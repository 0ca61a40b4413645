(** A VM state descriptor (VMCS in Intel terms).

    Each vCPU of each guest VM has one per managing hypervisor level,
    following the paper's naming: vmcs01 (L0's descriptor for L1),
    vmcs01' (L1's own descriptor for L2, which L0 shadows as vmcs12) and
    vmcs02 (L0's descriptor that actually runs L2). Dirty-field tracking
    feeds the transform cost model: only fields written since the last
    transform need copying. *)

type t

val create : unit -> t
(** A descriptor with every field 0 and nothing dirty. *)

val read : t -> Field.t -> int64
(** A guest hypervisor's vmread. Unset fields read 0. *)

val peek : t -> Field.t -> int64
(** Same as {!read}, for internal bookkeeping paths. *)

val write : t -> Field.t -> int64 -> unit
(** Marks the field dirty. *)

val copy : src:t -> dst:t -> Field.t -> unit
(** [copy ~src ~dst f] is [write dst f (read src f)] in one call: it marks
    [f] dirty in [dst] and allocates nothing. *)

val dirty_fields : t -> Field.t list
(** The fields first written since the last {!clean}, newest first. *)

val dirty_count : t -> int
(** How many fields are dirty: {!dirty_fields} without the list. *)

val dirty_index : t -> int -> int
(** [dirty_index t k] is the {!Field.index} of the [k]-th field first
    written since the last {!clean}, from 0 (the oldest) to
    [dirty_count t - 1] (the newest). *)

val clean : t -> unit

val record_exit :
  t ->
  reason:Svt_arch.Exit_reason.t ->
  qualification:int64 ->
  instruction_length:int ->
  unit
(** Record exit information, as the hardware does on a VM trap. *)
