(** Log-bucketed histogram of non-negative integers (latencies in ns),
    with bounded relative error per magnitude — suited to percentile/tail
    reporting over millions of samples. *)

type t

val create : unit -> t
(** 32 buckets per doubling: ≈3% worst-case relative error. *)

val add : t -> int -> unit
(** Record one sample. Values beyond the top bucket are clamped into it
    (still counted in [count]/[mean]/[max_value]); negative values
    raise [Invalid_argument]. *)

val count : t -> int
val mean : t -> float
val max_value : t -> int

val percentile : t -> float -> int
(** [percentile t 99.0] is an upper-bound estimate of the 99th
    percentile: the upper bound of the bucket holding that rank, capped
    at {!max_value}. The rank is clamped to at least 1, so any [p <= 0]
    gives the bound of the lowest non-empty bucket (not the exact
    minimum, which is not kept). 0 when empty. *)

val p99 : t -> int
