(** Simulated time: instants and spans in integer nanoseconds. *)

type t = int
(** Nanoseconds. Used both for absolute instants (since simulation start)
    and for spans; the arithmetic below keeps the two roles straight. *)

val zero : t

(** {2 Construction} *)

val of_ns : int -> t
val of_us : int -> t
val of_ms : int -> t
val of_us_f : float -> t
val of_ms_f : float -> t

(** {2 Observation} *)

val to_ns : t -> int
val to_us_f : t -> float
val to_ms_f : t -> float
val to_sec_f : t -> float

(** {2 Arithmetic and comparison} *)

val add : t -> t -> t
val sub : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is [a - b]. *)

val scale : t -> float -> t
(** [scale t k] is [t * k], rounded to the nearest nanosecond. *)

val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
