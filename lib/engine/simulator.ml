(* Discrete-event simulation core.

   Processes are ordinary OCaml functions executed under an effect handler
   (OCaml 5 one-shot continuations). A process interacts with virtual time
   only through the [Proc] operations below and the waits of [Signal]:
   [delay] advances its own clock by suspending until the event queue
   reaches the target instant, and a wait parks the process until a
   broadcast. Either way the process's continuation itself is parked, in
   a queue slot ([Event_queue.Wake]) or a signal's waiter list, and
   [run] resumes it. [Mailbox] blocks its reader on a [Signal]. Only one
   process runs at a time and control transfers happen exclusively at
   these points, so simulations are deterministic.

   A delay whose wake-up would be the next event popped anyway skips the
   queue: the process keeps running and the clock, event count and
   dispatch hooks move exactly as the round trip would have moved them
   (see [Proc.delay]). Nothing else could have run in between, so the
   event stream is unchanged. *)

(* Host-side dispatch hooks for the self-profiler: called around every
   event callback when installed. Observers must not touch virtual time
   or the queue — they exist to let a profiler segment host wall-clock
   and allocation between "inside an event" and "engine bookkeeping".
   The None state costs one match per event. *)
type observer = {
  on_event_start : unit -> unit;
  on_event_end : unit -> unit;
}

type t = {
  mutable now : Time.t;
  queue : Event_queue.t;
  mutable error : exn option;
  mutable events_processed : int;
  mutable budget_events : int;
  mutable observer : observer option;
  mutable horizon : Time.t; (* the [until] of the run in progress *)
  mutable in_process : bool; (* one of its processes is executing *)
  mutable in_place : int; (* delays taken without a queue round trip *)
  mutable delay_target : Time.t; (* the wake-up of the [E_delay] performed *)
  mutable wait_on : signal list; (* the signals of the wait performed *)
  mutable wait_span : Time.t; (* the timeout of the [E_wait_timeout] performed *)
}

(* A broadcast condition variable (the [Signal] module below). A waiter
   is the payload its wake-up will carry: the waiting process's parked
   continuation, or a [Call] shared by every signal of a [wait_any] or
   the one of a [wait_timeout]. [one] is the list of the signal alone,
   so a plain wait names its signal without building a list. *)
and signal = {
  sim : t;
  mutable waiters : Event_queue.payload list; (* newest first *)
  mutable one : signal list;
}

type sim = t

(* Deterministic fuel: exhaustion depends only on the event stream, never
   on the host clock, so the same run exhausts at the same instant on
   every machine. The payload records where the run stood when the fuel
   ran out (the campaign ledger keeps these counters). *)
exception Budget_exhausted of { events : int; now : Time.t; max_events : int }

let () =
  Printexc.register_printer (function
    | Budget_exhausted { events; now; max_events } ->
        Some
          (Printf.sprintf
             "Simulator.Budget_exhausted: max_events=%d (at %d events, t=%s)"
             max_events events (Time.to_string now))
    | _ -> None)

type _ Effect.t +=
  | E_now : Time.t Effect.t
  | E_delay : unit Effect.t (* to [delay_target] of the running simulator *)
  | E_sim : t Effect.t
  | E_wait : unit Effect.t (* on [wait_on] of the running simulator *)
  | E_wait_timeout : [ `Signaled | `Timeout ] Effect.t
      (* on the one signal of [wait_on], for [wait_span] *)

(* The runaway guard every simulator starts with: far above any real
   run, so only a hung one ever spends it. *)
let default_max_events = 200_000_000

let create () =
  { now = Time.zero; queue = Event_queue.create (); error = None;
    events_processed = 0; budget_events = default_max_events;
    observer = None; horizon = max_int; in_process = false; in_place = 0;
    delay_target = Time.zero; wait_on = []; wait_span = Time.zero }

(* The simulator whose [run] is in progress on this domain, or [idle]
   outside every run. [run] sets it and restores the previous value on
   the way out, exceptions included, so the many simulators lib/sched
   steps in turn on one domain each see their own and a finished one is
   not kept alive. Being domain-local, it is never shared between the
   worker domains of a campaign. [idle] never runs a process, so its
   [in_process] stays false. *)
let idle = create ()
let running = Domain.DLS.new_key (fun () -> idle)

let now t = t.now
let set_observer t ob = t.observer <- ob
let queue_stats t = Event_queue.stats t.queue
let delays_in_place t = t.in_place

let set_budget ~max_events t =
  if max_events < 1 then invalid_arg "Simulator.set_budget: max_events < 1";
  t.budget_events <- max_events

let schedule t ~after run =
  if after < 0 then invalid_arg "Simulator.schedule: negative delay";
  Event_queue.add t.queue ~time:(Time.add t.now after) (Event_queue.Call run)

let schedule_at t ~time run =
  if Time.(time < t.now) then invalid_arg "Simulator.schedule_at: past time";
  Event_queue.add t.queue ~time (Event_queue.Call run)

let cancel t h = Event_queue.cancel t.queue h

let rec register_all payload = function
  | [] -> ()
  | s :: rest ->
      s.waiters <- payload :: s.waiters;
      register_all payload rest

(* [in_process] is set on every entry into a process (its start and
   each resumption) and cleared on every exit (an effect that suspends
   it, or the body returning or raising), so it is true only while
   process code of [t] is the code running. A queued delay's continuation
   is resumed by [run], which sets it the same way.

   The handler's answers to [E_delay] and the waits are built once per
   process, so a delay that suspends allocates nothing but the
   continuation and its [Wake] payload, and so does a plain wait, plus
   its list cell. *)
let spawn t ?(name = "proc") f =
  let resume k v =
    t.in_process <- true;
    Effect.Deep.continue k v
  in
  let on_delay =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        t.in_process <- false;
        ignore (Event_queue.add t.queue ~time:t.delay_target (Event_queue.Wake k)))
  in
  let on_wait =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        t.in_process <- false;
        let signals = t.wait_on in
        t.wait_on <- [];
        match signals with
        | [ s ] -> s.waiters <- Event_queue.Wake k :: s.waiters
        | _ ->
            (* the first broadcast resumes [k]; the registrations that
               lose stay listed and run as no-ops *)
            let settled = ref false in
            register_all
              (Event_queue.Call
                 (fun () ->
                   if not !settled then begin
                     settled := true;
                     resume k ()
                   end))
              signals)
  in
  let on_wait_timeout =
    Some
      (fun (k : ([ `Signaled | `Timeout ], unit) Effect.Deep.continuation) ->
        t.in_process <- false;
        let s = List.hd t.wait_on in
        t.wait_on <- [];
        let settled = ref false in
        let timer =
          Event_queue.add t.queue ~time:(Time.add t.now t.wait_span)
            (Event_queue.Call
               (fun () ->
                 if not !settled then begin
                   settled := true;
                   resume k `Timeout
                 end))
        in
        s.waiters <-
          Event_queue.Call
            (fun () ->
              if not !settled then begin
                settled := true;
                Event_queue.cancel t.queue timer;
                resume k `Signaled
              end)
          :: s.waiters)
  in
  let body () =
    t.in_process <- true;
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> t.in_process <- false);
        exnc =
          (fun e ->
            t.in_process <- false;
            if t.error = None then
              t.error <- Some (Failure (Printf.sprintf
                "process %S raised: %s" name (Printexc.to_string e))));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | E_now ->
                Some (fun (k : (a, _) Effect.Deep.continuation) ->
                    Effect.Deep.continue k t.now)
            | E_delay -> on_delay
            | E_wait -> if t.wait_on == [] then None else on_wait
            | E_wait_timeout -> if t.wait_on == [] then None else on_wait_timeout
            | E_sim ->
                Some (fun (k : (a, _) Effect.Deep.continuation) ->
                    Effect.Deep.continue k t)
            | _ -> None);
      }
  in
  ignore (schedule t ~after:Time.zero body)

(* Run one popped event: call a callback, or resume a parked process,
   marking it running as [resume] in [spawn] does. *)
let dispatch t = function
  | Event_queue.Call f -> f ()
  | Event_queue.Wake k ->
      t.in_process <- true;
      Effect.Deep.continue k ()

(* Every event is one [Event_queue.pop]: it takes the earliest event due
   by [limit] and leaves its time in the queue's [time] field, or answers
   [none] when nothing is due. The fuel check comes first, before an
   event is consumed: the queue still holds the event that would
   overrun, so a handler catching the exception sees a consistent
   (merely truncated) simulation. A spent budget with nothing due ends
   the run normally. *)
let rec loop t limit =
  let q = t.queue in
  if t.events_processed >= t.budget_events then begin
    if Event_queue.length q > 0 && Time.(Event_queue.head_time q <= limit) then
      raise
        (Budget_exhausted
           { events = t.events_processed; now = t.now;
             max_events = t.budget_events })
  end
  else begin
    let payload = Event_queue.pop q ~until:limit in
    if payload != Event_queue.none then begin
      t.now <- q.time;
      t.events_processed <- t.events_processed + 1;
      (match t.observer with
      | None -> dispatch t payload
      | Some ob -> (
          ob.on_event_start ();
          (* the end hook fires even when the callback raises, so the
             profiler's in-event segmentation cannot wedge open *)
          match dispatch t payload with
          | () -> ob.on_event_end ()
          | exception e ->
              ob.on_event_end ();
              raise e));
      (match t.error with Some e -> raise e | None -> ());
      loop t limit
    end
  end

let run ?until t =
  let limit = match until with Some l -> l | None -> max_int in
  let outer = Domain.DLS.get running in
  Domain.DLS.set running t;
  t.horizon <- limit;
  (match loop t limit with
  | () -> Domain.DLS.set running outer
  | exception e ->
      Domain.DLS.set running outer;
      raise e);
  match until with
  | Some limit when Time.(t.now < limit) && Event_queue.length t.queue = 0 ->
      t.now <- limit
  | _ -> ()

let events_processed t = t.events_processed

(* The instant of the earliest pending event. This is what lets an
   external scheduler share one clock across many simulators: a guest
   whose next event lies beyond the scheduling horizon is asleep and can
   have its slice skipped without running (or perturbing) it. *)
let next_event_time t =
  if Event_queue.length t.queue = 0 then None
  else Some (Event_queue.head_time t.queue)

module Proc = struct
  (* Outside a process of the running simulator these fall back to the
     effect, which a plain callback leaves unhandled: misuse raises
     [Effect.Unhandled] instead of reading some other clock. *)
  let now () =
    let t = Domain.DLS.get running in
    if t.in_process then t.now else Effect.perform E_now

  let sim () =
    let t = Domain.DLS.get running in
    if t.in_process then t else Effect.perform E_sim

  (* A delay whose wake-up would be the very next event popped is taken
     in place: the clock advances, the event is counted and the dispatch
     hooks fire exactly as a queue round trip would, but the process
     never suspends. "Next popped" is exactly what [run]'s loop would
     do after this event: the target lies within the run's horizon, the
     budget has room, and the target is strictly earlier than the queue
     head, one [Event_queue.head_time] read that is [max_int] for an
     empty queue (at an equal time the head was enqueued first, so FIFO
     order makes it go first). A pending process error needs no
     check: the process that raised it has ended, and no other process
     runs within the same event. *)
  let delay span =
    if span < 0 then invalid_arg "Proc.delay: negative span";
    if span > 0 then begin
      let t = Domain.DLS.get running in
      let target = Time.add t.now span in
      if
        t.in_process
        && Time.(target <= t.horizon)
        && t.events_processed < t.budget_events
        && Time.(target < Event_queue.head_time t.queue)
      then begin
        t.now <- target;
        t.events_processed <- t.events_processed + 1;
        t.in_place <- t.in_place + 1;
        match t.observer with
        | None -> ()
        | Some ob ->
            ob.on_event_end ();
            ob.on_event_start ()
      end
      else begin
        t.delay_target <- target;
        Effect.perform E_delay
      end
    end
end

module Signal = struct
  (* Broadcast condition variable with optional timeout on wait. A plain
     wait parks the process's continuation itself in the waiter list, so
     its wake-up is a [Wake] slot like a queued delay's. [wait_any] and
     [wait_timeout] park it behind one settled flag: the first wake-up
     resumes it and any later one is a no-op. A registration that lost
     stays listed until its signal's next broadcast, which spends one
     event on it: [events_processed] counts that event, and the digests
     pinned on it with it. *)
  type t = signal

  let create sim =
    let s = { sim; waiters = []; one = [] } in
    s.one <- [ s ];
    s

  let rec add_all sim = function
    | [] -> ()
    | p :: rest ->
        ignore (Event_queue.add sim.queue ~time:sim.now p);
        add_all sim rest

  (* Wake-ups run oldest first, at the current instant, one queue entry
     each. *)
  let broadcast s =
    match s.waiters with
    | [] -> ()
    | [ p ] ->
        s.waiters <- [];
        ignore (Event_queue.add s.sim.queue ~time:s.sim.now p)
    | waiters ->
        s.waiters <- [];
        add_all s.sim (List.rev waiters)

  (* The signals travel to the process's handler through the running
     simulator. Outside a process the effect is left unhandled, as
     [Proc]'s operations leave theirs. *)
  let park signals =
    let t = Domain.DLS.get running in
    if t.in_process then t.wait_on <- signals

  let wait s =
    park s.one;
    Effect.perform E_wait

  let wait_any signals =
    match signals with
    | [] -> invalid_arg "Signal.wait_any: no signals"
    | _ ->
        park signals;
        Effect.perform E_wait

  let wait_timeout s span =
    if span < 0 then invalid_arg "Signal.wait_timeout: negative span";
    let t = Domain.DLS.get running in
    if t.in_process then begin
      t.wait_on <- s.one;
      t.wait_span <- span
    end;
    Effect.perform E_wait_timeout
end

module Mailbox = struct
  (* Unbounded FIFO channel between processes. A reader blocks on the
     mailbox's signal while the queue is empty, and [send] broadcasts
     after each push. With the one reader every mailbox has, each wake-up
     is one queued event at the send's instant, and a send while no
     reader waits schedules nothing. *)
  type 'a t = { items : 'a Queue.t; nonempty : Signal.t }

  let create sim = { items = Queue.create (); nonempty = Signal.create sim }

  let send mb v =
    Queue.push v mb.items;
    Signal.broadcast mb.nonempty

  let recv mb =
    while Queue.is_empty mb.items do
      Signal.wait mb.nonempty
    done;
    Queue.pop mb.items

  let try_recv mb =
    if Queue.is_empty mb.items then None else Some (Queue.pop mb.items)
end
