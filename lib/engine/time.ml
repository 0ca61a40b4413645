(* Simulated time. Absolute instants and spans are both counted in integer
   nanoseconds since the start of the simulation; at 63 bits this covers
   ~292 simulated years, far beyond any experiment here. *)

type t = int

let zero = 0
external of_ns : int -> t = "%identity"
external to_ns : t -> int = "%identity"
let of_us us = us * 1_000
let of_ms ms = ms * 1_000_000
let of_us_f us = int_of_float (us *. 1_000.0 +. 0.5)
let of_ms_f ms = int_of_float (ms *. 1_000_000.0 +. 0.5)
let to_us_f t = float_of_int t /. 1_000.0
let to_ms_f t = float_of_int t /. 1_000_000.0
let to_sec_f t = float_of_int t /. 1_000_000_000.0
external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external diff : t -> t -> t = "%subint"
let scale t k = int_of_float (float_of_int t *. k +. 0.5)
let compare = Int.compare
external ( <= ) : t -> t -> bool = "%lessequal"
external ( < ) : t -> t -> bool = "%lessthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external ( > ) : t -> t -> bool = "%greaterthan"
let min : t -> t -> t = Stdlib.min
let max : t -> t -> t = Stdlib.max

let pp ppf t =
  if t < 1_000 then Fmt.pf ppf "%dns" t
  else if t < 1_000_000 then Fmt.pf ppf "%.2fus" (to_us_f t)
  else if t < 1_000_000_000 then Fmt.pf ppf "%.3fms" (to_ms_f t)
  else Fmt.pf ppf "%.3fs" (to_sec_f t)

let to_string t = Fmt.str "%a" pp t
