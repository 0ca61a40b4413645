(** Bump allocator of host physical frames. Hypervisors draw frames from
    here for guest RAM, VMCS pages, page tables and the shared SW SVt
    rings; no frame is ever returned. *)

type t

val create : base:int -> size_bytes:int -> t
(** [base] must be page-aligned. *)

val alloc : t -> Addr.Hpa.t
(** Raises [Failure] when the pool is exhausted. *)
