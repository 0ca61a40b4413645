(** Deterministic PRNG (xoshiro256++) and the distributions the simulator
    draws from. All randomness is explicitly threaded for reproducibility. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val of_seed : int64 -> t
(** Like {!create} but seeded from a full 64-bit value, e.g. a campaign
    run-id hash: each run derives an independent, reproducible stream
    regardless of the order runs are scheduled in. *)

val of_split : int64 -> index:int -> t
(** [of_seed (split_seed parent ~index)]: the child stream itself. The
    fault injector keys its per-kind streams this way, and the fuzzer its
    per-input streams. *)

val next_int64 : t -> int64

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int g bound] is uniform in [0, bound), without modulo bias. *)

val int_in_range : t -> lo:int -> hi:int -> int
val bernoulli : t -> float -> bool

val exponential : t -> mean:float -> float
(** Mean-parameterized exponential; used for Poisson arrival gaps. *)

val normal : t -> mean:float -> stddev:float -> float
val pick : t -> 'a array -> 'a
val shuffle : t -> 'a array -> unit

(** Zipf-distributed ranks in [1, n]. *)
module Zipf : sig
  type dist

  val create : n:int -> s:float -> dist
  val draw : dist -> t -> int
end
