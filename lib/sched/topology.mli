(** Host hardware-thread topology for the consolidation scheduler:
    sockets × cores × SMT threads over {!Svt_arch.Smt_core} cores in
    [Smt_mode]. Thread ids are core-major:
    [tid = core * smt_per_core + ctx]. *)

type t

val create :
  ?sockets:int -> ?cores_per_socket:int -> ?smt_per_core:int -> unit -> t
(** Defaults are the paper testbed: 2 × 8 × 2 (32 hardware threads).
    Raises [Invalid_argument] on a dimension < 1. *)

val smt_per_core : t -> int
val n_cores : t -> int
val n_threads : t -> int
val core : t -> int -> Svt_arch.Smt_core.t
val thread : t -> core:int -> ctx:int -> int
val core_of_thread : t -> int -> int
val ctx_of_thread : t -> int -> int
