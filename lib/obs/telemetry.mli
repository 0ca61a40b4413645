(** Process-wide telemetry registry: named counters and gauges that
    long-running campaigns update as they go and periodically snapshot
    into ledger heartbeat rows (see [Svt_campaign.Heartbeat]).

    Cells are created on first use; using one name with two different
    kinds raises [Invalid_argument]. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at 0). *)

val set : t -> string -> float -> unit
(** Set a gauge. *)

val counter : t -> string -> int
(** 0 when absent. *)

val gauge : t -> string -> float
(** 0.0 when absent. *)

val snapshot : t -> (string * float) list
(** Flat, name-sorted view of counters and gauges. Sorted so
    snapshot-bearing ledger rows are byte-stable for a given state. *)
