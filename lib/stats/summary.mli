(** Streaming summary statistics (Welford). *)

type t

val count : t -> int
val mean : t -> float
val stddev : t -> float
val stderr_of_mean : t -> float
val of_list : float list -> t
