(** A memcached-like in-memory key-value store: separate-chaining hash
    table with incremental resizing and LRU eviction under a memory cap.
    A real data structure — the ETC workload (Figure 8)
    executes genuine get/set operations against it. *)

type t

val create : ?memory_cap:int -> unit -> t
(** [memory_cap] in bytes of keys+values; 0 (default) = unlimited. The
    table starts at 1,024 buckets and doubles at 3/4 load. *)

val set : t -> string -> bytes -> unit
(** Insert or overwrite; evicts from the LRU tail while over the cap. *)

val get : t -> string -> bytes option
(** Hit moves the entry to the LRU front. *)

val hash : string -> int
(** FNV-1a over the key's bytes, on OCaml's 63-bit ints (the 64-bit
    offset basis truncated), masked non-negative: the bucket hash. *)

(** {2 Introspection} *)

val size : t -> int

val lru_keys : t -> string list
(** Most- to least-recently used, at most {!size} keys (tests). *)
