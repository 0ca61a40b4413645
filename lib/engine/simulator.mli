(** Deterministic discrete-event simulator with effect-based processes.

    A simulation is a set of cooperative processes over a shared virtual
    clock. Processes are plain functions run with {!spawn}; inside a
    process, the operations in {!Proc} (and the synchronization primitives
    {!Signal}, {!Mailbox}) are the only ways to interact with
    virtual time. A process blocks in exactly two ways: in {!Proc.delay},
    or waiting on a {!Signal} ({!Mailbox.recv} is a wait on the mailbox's
    signal). Exactly one process runs at any instant and control only
    transfers at those operations, so runs are fully deterministic. *)

type t

type sim = t
(** Alias for use inside the submodules below, whose own [t] shadows it. *)

exception Budget_exhausted of { events : int; now : Time.t; max_events : int }
(** Raised from {!run} when the simulator has processed its event
    budget ({!set_budget}) and still has events queued. This is the one
    thing that stops a run early. Deterministic: depends only on the
    event stream, never on the host clock, so a runaway run is cut at
    the same virtual instant on every machine. The payload is the run's
    fuel counters at the point of exhaustion and the spent limit. *)

(** Host-side dispatch hooks, called around every event callback while
    installed. Observers run on the host only: they must not schedule,
    cancel, or advance virtual time, so installing one can never change
    simulation results. Used by the self-profiler to segment host
    wall-clock and allocation between in-event work and engine
    bookkeeping. *)
type observer = {
  on_event_start : unit -> unit;
  on_event_end : unit -> unit;  (** fires even when the callback raises *)
}

val create : unit -> t
(** A fresh simulator at time zero, with a 200M-event budget as its
    runaway guard. *)

val now : t -> Time.t

val set_observer : t -> observer option -> unit
(** Install (or clear) the dispatch observer. The [None] state costs one
    match per event. *)

val queue_stats : t -> Event_queue.stats
(** Lifetime op counters of the event queue (adds / pops / cancels /
    peak live size). Deterministic: a pure function of the event
    stream. *)

val delays_in_place : t -> int
(** Events taken in place by {!Proc.delay} rather than through the
    queue. Every processed event is one or the other, so
    [(queue_stats t).pops + delays_in_place t = events_processed t]. *)

val set_budget : max_events:int -> t -> unit
(** Replace the event budget: once [max_events] events have been
    processed over the simulator's lifetime (across every {!run} call),
    the next event raises {!Budget_exhausted}. The check happens before
    an event is consumed, so the queue still holds the overrunning
    event. Raises [Invalid_argument] when [max_events < 1]. *)

val schedule : t -> after:Time.t -> (unit -> unit) -> Event_queue.handle
(** Run a callback [after] nanoseconds from now. Callbacks must not perform
    process effects; use {!spawn} for that. The handle is an immediate
    int, so keeping it costs nothing. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> Event_queue.handle

val cancel : t -> Event_queue.handle -> unit
(** Drop a scheduled callback. A no-op once it has fired or been
    cancelled ({!Event_queue.cancel}). *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a process at the current instant. An exception escaping a process
    aborts the whole run (re-raised from {!run}, tagged with
    [name]). *)

val run : ?until:Time.t -> t -> unit
(** Process events until the queue drains or [until] is passed; raises
    {!Budget_exhausted} when the budget is spent while an event is still
    due by [until]. When [until] is
    given and the queue drains early, the clock still advances to
    [until]. *)

val events_processed : t -> int

val next_event_time : t -> Time.t option
(** The instant of the earliest pending event ([None] when the queue is
    empty). A host scheduler multiplexing several simulators over one
    shared clock uses this to tell a runnable guest (next event within
    the current quantum) from a sleeping one, whose slice can be skipped
    without running it. *)

(** Operations usable only inside a process spawned via {!spawn}. Called
    from a plain {!schedule} callback instead, they raise
    [Effect.Unhandled]. *)
module Proc : sig
  val now : unit -> Time.t
  val sim : unit -> sim

  val delay : Time.t -> unit
  (** Advance this process's clock by a span, letting other events run.
      The wake-up counts as one event either way. When it would be the
      next event popped — the target is strictly earlier than every
      queued event, within the [until] of the {!run} in progress, and
      the budget has room — the delay is taken in place: the clock
      advances and the observer's hooks fire without the process
      suspending. Otherwise the wake-up goes through the queue, and an
      equal-time event queued earlier runs first: the process's
      continuation is parked in a queue slot as it is (an
      {!Event_queue.Wake} payload, no closure around it) and resumed when
      that slot is popped. *)
end

(** Broadcast condition variable. The waits are process-only: called
    from a plain callback they raise [Effect.Unhandled]. *)
module Signal : sig
  type t

  val create : sim -> t

  val broadcast : t -> unit
  (** Wake every currently-registered waiter: one queued event each, at
      the current instant, oldest registration first. *)

  val wait : t -> unit
  (** Block until the next {!broadcast}. The process's continuation is
      itself the waiter, and its wake-up an {!Event_queue.Wake} payload,
      with no closure around it. *)

  val wait_any : t list -> unit
  (** Block until any of the signals broadcasts. One waiter, behind a
      settled flag, is registered on every signal; the first broadcast
      resumes the process, and a registration that lost stays until its
      signal's next broadcast, which spends one no-op event on it.
      Raises [Invalid_argument] on an empty list. *)

  val wait_timeout : t -> Time.t -> [ `Signaled | `Timeout ]
  (** Block until the next broadcast or until the span elapses: a timer
      and a registration behind one settled flag, the first to fire
      winning. A timed-out registration stays until the signal's next
      broadcast, which spends one no-op event on it. Raises
      [Invalid_argument] on a negative span. *)
end

(** Unbounded FIFO channel between processes, built on a {!Signal}.
    Each mailbox is meant to have one reader, as every mailbox in the
    simulator does. *)
module Mailbox : sig
  type 'a t

  val create : sim -> 'a t

  val send : 'a t -> 'a -> unit
  (** Push the item, then broadcast the mailbox's signal: a blocked
      reader wakes by one queued event at the current instant, and a
      send while no reader waits schedules nothing. Callable from a
      process or a plain callback. *)

  val recv : 'a t -> 'a
  (** Pop the oldest item, first waiting on the mailbox's signal while
      the queue is empty (process-only, like {!Signal.wait}). A woken
      reader that finds the queue empty, because another reader took
      the item first, waits again. *)

  val try_recv : 'a t -> 'a option
  (** Pop the oldest item without blocking; [None] when empty. *)
end
