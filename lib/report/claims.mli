(** The paper's evaluation claims as one table.

    Each row names one claim of §6, reads its published value from
    {!Paper}, measures the reproduction at claim scale and states how
    close is close enough. The measurements are short runs; each run is
    made once and shared by every row that reads it. The regression
    tests make one test case per row, and [svt_sim paper claims] prints
    the same rows as a scorecard. *)

type predicate =
  | Above of float  (** measured > bound: an ordering *)
  | Below of float  (** measured < bound: an ordering *)
  | Band of float * float  (** lo < measured < hi: a stated tolerance *)

type status =
  | Holds  (** the predicate accepts the paper's own value *)
  | Known_deviation of string
      (** the predicate is the model's current band, which excludes the
          paper's value; the string says why the model differs *)

type t = {
  id : string;  (** unique, e.g. ["fig7.rr.hw-speedup"] *)
  figure : string;  (** the table or figure the claim belongs to *)
  paper : float;
  measured : float Lazy.t;
  predicate : predicate;
  status : status;
}

val all : t list

val accepts : predicate -> float -> bool

val check : t -> (unit, string) result
(** Force the measurement and apply the predicate; on failure, a message
    naming the claim, the measurement, the predicate and the paper's
    value. *)

val print_scorecard : t list -> unit
(** One line per claim (id, measured, paper, relative error, predicate
    and verdict), then the reason of each known deviation. *)
