(** Bump allocator of host physical frames. Hypervisors draw frames from
    here for guest RAM, VMCS pages, page tables and the shared SW SVt
    rings; no frame is ever returned. *)

type t

val create : base:int -> size_bytes:int -> t
(** [base] must be page-aligned. *)

val alloc : t -> int -> Addr.Hpa.t
(** [alloc t n] hands out [n] contiguous frames and returns the first;
    frame [i] of the run is [i] pages above it. Raises [Failure] when the
    pool cannot hold all [n], taking none of them. *)
