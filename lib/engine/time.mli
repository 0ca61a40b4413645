(** Simulated time: instants and spans in integer nanoseconds. *)

type t = int
(** Nanoseconds. Used both for absolute instants (since simulation start)
    and for spans; the arithmetic below keeps the two roles straight. *)

val zero : t

(** {2 Construction} *)

external of_ns : int -> t = "%identity"
val of_us : int -> t
val of_ms : int -> t
val of_us_f : float -> t
val of_ms_f : float -> t

(** {2 Observation} *)

external to_ns : t -> int = "%identity"
val to_us_f : t -> float
val to_ms_f : t -> float
val to_sec_f : t -> float

(** {2 Arithmetic and comparison}

    Compiler primitives, so each use is one machine instruction even where
    the build does no cross-module inlining. *)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"

external diff : t -> t -> t = "%subint"
(** [diff a b] is [a - b]. *)

val scale : t -> float -> t
(** [scale t k] is [t * k], rounded to the nearest nanosecond. *)

val compare : t -> t -> int
external ( <= ) : t -> t -> bool = "%lessequal"
external ( < ) : t -> t -> bool = "%lessthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external ( > ) : t -> t -> bool = "%greaterthan"
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
