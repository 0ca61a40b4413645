(** SMT core model with the SVt extensions of paper §4 / Table 2.

    A core has [n] hardware contexts (SMT threads) sharing one physical
    register file ({!Regfile}). Under SVt only one context fetches
    instructions at a time: the cached µ-registers below decide which,
    and VM trap / VM resume events switch the fetch target by copying
    SVt_visor / SVt_vm into SVt_current. Context indices seen by a guest
    hypervisor are virtual — L0 virtualizes them through the SVt fields
    of the VMCS that hypervisor runs on. *)

type ctx_state = Active | Stalled | Halted
type mode = Smt_mode | Svt_mode

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

val is_vm : t -> bool
(** The pre-existing is_vm µ-register: executing inside a VM? *)

val switches : t -> int
(** Stall/resume events so far (tests, metrics). *)

val state : t -> int -> ctx_state

val load_svt_fields : t -> visor:int -> vm:int -> unit
(** Refresh the cached µ-registers from a VMCS's SVt fields, as VMPTRLD
    does (§4 step Ⓑ). *)

val activate : t -> int -> unit
(** Stall whatever runs and start fetching from the given context. *)

val vm_resume : t -> unit
(** VM resume: stall the current context, fetch from SVt_vm, set is_vm
    (§4 step Ⓒ). Raises if SVt_vm is invalid. *)

val vm_trap : t -> unit
(** VM trap: fetch from SVt_visor, clear is_vm. *)

(** {2 SMT interference}

    While a sibling context spins (a polling waiter in the SW prototype),
    the active thread loses issue slots (§6.1). *)

val set_polling_siblings : t -> int -> unit
val interference_factor : t -> float
val scale_compute : t -> Svt_engine.Time.t -> Svt_engine.Time.t

(** {2 Host-level occupancy}

    A host scheduler (lib/sched) placing many guests on one topology runs
    its cores in plain {!Smt_mode}, where several contexts fetch
    concurrently; the per-context states then track which hardware
    threads hold runnable work in the current quantum. *)

val set_mode : t -> mode -> unit
(** Switch the fetch model. Entering [Smt_mode] clears every context to
    [Halted] (no occupancy yet). *)

val set_ctx_busy : t -> int -> bool -> unit
(** Mark a hardware thread as holding runnable work ([Active]) or idle
    ([Halted]) for the current scheduling quantum. Raises on SVt-mode
    cores, which fetch from exactly one context by construction. *)

val co_runner_factor : t -> ctx:int -> float
(** Slowdown multiplier seen by context [ctx] from busy siblings and
    polling waiters: [1 + 0.30·busy_siblings + 0.35·polling]. *)
