(** Costs as values: what a leg of the trap protocol costs, stated once.

    A value is an ordered list of charges. A charge is one {!Breakdown}
    bucket and one delay, and names the terms it sums, as in
    ["resume_hw+l1_world_extra"]. A term is a [Cost_model] field or
    named constant, or a profile field of the exit ([l0_pure],
    [l1_pure]); [X.half] is half of [X] rounded down and [X.rest] the
    remainder; [transform_per_field*fields] scales by the count given to
    {!apply}. Amounts are read when the value is applied, so one value
    serves every machine (a charge of machine terms alone also keeps its
    amount on each backend's preset machine). Build values once, at
    module initialisation or path creation, never per exit. *)

type charge
type t = charge list

val charge : Breakdown.bucket -> string -> charge
(** @raise Invalid_argument on a name that is no term. *)

val apply :
  Breakdown.t -> Svt_arch.Cost_model.t -> Svt_arch.Cost_model.profile -> int -> t -> unit
(** [apply bd cost profile count v]: one {!Breakdown.charge} per charge
    of [v], in order; [profile] is the exit's (or {!no_exit}), [count]
    the per-item count (0 where no term reads it). Allocates nothing. *)

val total :
  Svt_arch.Cost_model.t -> Svt_arch.Cost_model.profile -> int -> t -> Svt_engine.Time.t
(** What {!apply} would charge, without running it. *)

val tag : t -> string * string
(** The span tag [cost]: every term of the value, in order, joined by
    ['+']. *)

val no_exit : Svt_arch.Cost_model.profile
(** For charges outside an exit's handling: its terms read 0. *)
