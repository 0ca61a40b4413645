(** Instrumentation buckets reproducing the paper's Table 1: every delay
    the trap-handling protocol pays is charged to one of the circled
    parts ⓪–⑤, plus two SVt-specific buckets (channel time, cross-context
    register accesses) so the extended breakdown stays complete. *)

type bucket =
  | L2_guest  (** ⓪ the guest's own code *)
  | Switch_l2_l0  (** ① *)
  | Transform  (** ② vmcs02/vmcs12 transforms *)
  | L0_handler  (** ③ *)
  | Switch_l0_l1  (** ④ *)
  | L1_handler  (** ⑤, includes L1's auxiliary exits as in the paper *)
  | Channel  (** SW SVt command rings and waits *)
  | Ctxt_access  (** HW SVt ctxtld/ctxtst *)

type t

val create : unit -> t

val charge : t -> bucket -> Svt_engine.Time.t -> unit
(** Spend the span in simulated time (a [Proc.delay]) and account it.
    Must run in a simulator process. *)

val note : t -> bucket -> Svt_engine.Time.t -> unit
(** Account time that already elapsed (e.g. a wait that advanced the
    clock on its own). *)

val count_exit : t -> unit
val exits : t -> int
val time : t -> bucket -> Svt_engine.Time.t
val total : t -> Svt_engine.Time.t
val reset : t -> unit

val rows : t -> (string * Svt_engine.Time.t * float) list
(** Table-1-shaped rows: (part, time, percent). SVt-only buckets are
    omitted while empty. *)
