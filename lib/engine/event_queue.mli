(** Cancellable min-priority queue of timed events.

    Events with equal times are delivered in insertion (FIFO) order, which
    makes simulations deterministic.

    The queue is a pool of slots held as parallel arrays (a time, a
    sequence number and a payload per slot) under a binary heap of slot
    ids, so queueing an event allocates nothing beyond its payload. A
    {!handle} is a plain int naming the slot and the sequence number of
    the event in it: cancelling is O(1), and a handle whose event
    already fired or was cancelled, even one whose slot a newer event
    has since reused, is recognised and ignored. *)

type slots
(** The slot pool and its heap. *)

type t = private {
  mutable time : Time.t;
      (** The time of the event {!pop} last returned: a field, so the
          event loop reads it without a call. *)
  slots : slots;
}

type handle
(** Names one event for {!cancel}. An immediate value: it costs no
    allocation to hold. *)

(** What a slot holds: a callback to run, or a process continuation to
    resume (a queued [Simulator.Proc.delay]), stored as it is with no
    wrapping closure. *)
type payload =
  | Call of (unit -> unit)
  | Wake of (unit, unit) Effect.Deep.continuation

(** Lifetime op counts of a queue: enqueues, live (non-cancelled) pops,
    cancellations, and the high-water mark of live entries. Driven only
    by the deterministic event stream — identical across hosts and
    worker interleavings — so the profiler may read them freely without
    perturbing anything. *)
type stats = { adds : int; pops : int; cancels : int; peak_live : int }

val create : unit -> t
(** An empty queue of 16 slots; it doubles whenever every slot is
    taken. *)

val stats : t -> stats

val add : t -> time:Time.t -> payload -> handle
(** Enqueue [payload] to fire at [time]. *)

val cancel : t -> handle -> unit
(** Idempotent; a cancelled event is never returned by {!pop}. A no-op
    on a handle whose event already fired, also after its slot has been
    reused. *)

val none : payload
(** What {!pop} returns when no event is due; compare it with [==]. It
    is never the payload of a queued event. *)

val pop : t -> until:Time.t -> payload
(** Remove the earliest live event if its time is at most [until],
    record that time in [time] and return its payload. Returns {!none},
    removing nothing, when the queue is empty or its earliest live event
    lies beyond [until]. *)

val head_time : t -> Time.t
(** Time of the earliest live event, or [max_int] when the queue is
    empty. *)

val length : t -> int
(** Number of live (non-cancelled) events. *)
