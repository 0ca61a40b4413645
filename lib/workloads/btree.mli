(** In-memory B+tree with int keys: the ordered-index substrate of the
    mini transactional engine behind the TPC-C benchmark (Figure 9).
    Leaves are chained for range scans. *)

type 'v t

val create : ?order:int -> unit -> 'v t
(** [order] (max children per node, default 32) must be at least 4. *)

val insert : 'v t -> int -> 'v -> unit
(** Overwrites an existing key in place. *)

val find : 'v t -> int -> 'v option

val update : 'v t -> int -> ('v -> 'v) -> bool
(** In-place update; [false] when the key is absent. *)

val fold_range : 'v t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> 'v -> 'a) -> 'a
(** In-order fold over keys in [lo, hi], via the leaf chain. *)

val range : 'v t -> lo:int -> hi:int -> (int * 'v) list

val check_invariants : 'v t -> bool
(** Key ordering within nodes, separator discipline, arity, leaf-chain
    ordering — the property tests' oracle. *)
