(** Cancellable min-priority queue of timed events.

    Events with equal times are delivered in insertion (FIFO) order, which
    makes simulations deterministic. *)

type t
type handle

(** Lifetime op counts of a queue: enqueues, live (non-cancelled) pops,
    cancellations, and the high-water mark of live entries. Driven only
    by the deterministic event stream — identical across hosts and
    worker interleavings — so the profiler may read them freely without
    perturbing anything. *)
type stats = { adds : int; pops : int; cancels : int; peak_live : int }

val create : unit -> t

val stats : t -> stats

val add : t -> time:Time.t -> (unit -> unit) -> handle
(** Enqueue [run] to fire at [time]. *)

val cancel : t -> handle -> unit
(** Idempotent; a cancelled event is never returned by {!take}. Safe on a
    handle whose event already fired (a no-op). *)

val next_time : t -> Time.t
(** Time of the earliest live event. Raises [Invalid_argument] on an
    empty queue, so check {!is_empty} first. *)

val take : t -> (unit -> unit)
(** Remove the earliest live event and return its callback. Raises
    [Invalid_argument] on an empty queue. *)

val is_empty : t -> bool

val length : t -> int
(** Number of live (non-cancelled) events. *)
