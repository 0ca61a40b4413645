(** The paper's measurement discipline: repeat until the 2σ confidence
    interval of the mean is within 1% of the mean, after 4σ outlier
    rejection (§2.3, §6.1). A result needs at least 16 samples to count
    as converged; sampling stops at 100,000 either way. *)

type result = { mean : float; samples_used : int; converged : bool }

val reject_outliers : float list -> float list * int
(** Returns kept samples and the number rejected. *)

val summarize : float list -> result

val run : (unit -> float) -> result
(** Draw samples in batches until converged (or 100,000 samples). *)
