(** Shared physical register file with per-context rename maps, as in an
    SMT core (paper §4): cross-context register access resolves through the
    target context's rename map with no memory traffic. *)

type t
type phys_index = int

val create : contexts:int -> physical_entries:int -> t
(** Raises if the physical file cannot back every context's architectural
    switched set. *)

val phys_of : t -> ctx:int -> Reg.t -> phys_index
(** Current physical entry backing [reg] in context [ctx]. *)

val read : t -> ctx:int -> Reg.t -> int64
val write : t -> ctx:int -> Reg.t -> int64 -> unit

val blit_gprs : t -> ctx:int -> Bytes.t -> off:int -> unit
(** Write the 16 GPRs of [ctx], in {!Reg.all_gprs} order, into the
    bytes from [off] as little-endian u64s. Allocates nothing. *)
