(** A memcached-like in-memory key-value store: separate-chaining hash
    table with incremental resizing, LRU eviction under a memory cap, and
    per-entry expiry. A real data structure — the ETC workload (Figure 8)
    executes genuine get/set operations against it. *)

type t

val create : ?memory_cap:int -> ?initial_buckets:int -> unit -> t
(** [memory_cap] in bytes of keys+values; 0 (default) = unlimited. *)

val set : t -> now:int -> ?ttl_ns:int -> string -> bytes -> unit
(** Insert or overwrite; evicts from the LRU tail while over the cap. *)

val get : t -> now:int -> string -> bytes option
(** Hit moves the entry to the LRU front; a lazily-expired entry counts
    as a miss and is removed. *)

(** {2 Introspection} *)

val size : t -> int

val lru_keys : t -> string list
(** Most- to least-recently used (tests). *)
