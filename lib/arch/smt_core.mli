(** SMT core model with the SVt extensions of paper §4 / Table 2.

    A core has [n] hardware contexts (SMT threads) sharing one physical
    register file ({!Regfile}). Under SVt only one context fetches
    instructions at a time: the cached µ-registers below decide which,
    and VM trap / VM resume events switch the fetch target by copying
    SVt_visor / SVt_vm into SVt_current. Context indices seen by a guest
    hypervisor are virtual — L0 virtualizes them through the SVt fields
    of the VMCS that hypervisor runs on. *)

val invalid_ctx : int
(** The "invalid value" the paper stores in unused SVt fields. *)

type t

val create : ?n_contexts:int -> id:int -> unit -> t
(** Defaults: 2-way SMT, a 168-entry physical register file (grown if the
    contexts need more). *)

val id : t -> int
val n_contexts : t -> int
val regfile : t -> Regfile.t

val current : t -> int
(** The context currently fetching instructions (SVt_current). *)

val switches : t -> int
(** Stall/resume events so far (tests, metrics). *)

val load_svt_fields : t -> visor:int -> vm:int -> unit
(** Refresh the cached µ-registers from a VMCS's SVt fields, as VMPTRLD
    does (§4 step Ⓑ). *)

val activate : t -> int -> unit
(** Stall whatever runs and start fetching from the given context. *)

val vm_resume : t -> unit
(** VM resume: stall the current context and fetch from SVt_vm (§4 step
    Ⓒ). Raises if SVt_vm is invalid. *)

val vm_trap : t -> unit
(** VM trap: fetch from SVt_visor. Raises if SVt_visor is invalid. *)

(** {2 SMT interference}

    While a sibling context spins (a polling waiter in the SW prototype),
    the active thread loses issue slots (§6.1). *)

val set_polling_siblings : t -> int -> unit
val interference_factor : t -> float
val scale_compute : t -> Svt_engine.Time.t -> Svt_engine.Time.t
