(* Discrete-event simulation core.

   Processes are ordinary OCaml functions executed under an effect handler
   (OCaml 5 one-shot continuations). A process interacts with virtual time
   only through the [Proc] operations below: [delay] advances its own clock
   by suspending until the event queue reaches the target instant, and
   [suspend] parks the process until some other party calls the provided
   resume function. Only one process runs at a time and control transfers
   happen exclusively at these points, so simulations are deterministic. *)

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
}

type sim = t

exception Deadlock of string

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
  | E_delay : Time.t -> unit Effect.t
  | E_suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | E_sim : t Effect.t

(* The runaway guard every simulator starts with: far above any real
   run, so only a hung one ever spends it. *)
let default_max_events = 200_000_000

let create () =
  { now = Time.zero; queue = Event_queue.create (); error = None;
    events_processed = 0; budget_events = default_max_events;
    observer = None }

let now t = t.now
let set_observer t ob = t.observer <- ob
let queue_stats t = Event_queue.stats t.queue

let set_budget ~max_events t =
  if max_events < 1 then invalid_arg "Simulator.set_budget: max_events < 1";
  t.budget_events <- max_events

let schedule t ~after run =
  if after < 0 then invalid_arg "Simulator.schedule: negative delay";
  Event_queue.add t.queue ~time:(Time.add t.now after) run

let schedule_at t ~time run =
  if Time.(time < t.now) then invalid_arg "Simulator.schedule_at: past time";
  Event_queue.add t.queue ~time run

let cancel t h = Event_queue.cancel t.queue h

let spawn t ?(name = "proc") f =
  let body () =
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> ());
        exnc =
          (fun e ->
            if t.error = None then
              t.error <- Some (Failure (Printf.sprintf
                "process %S raised: %s" name (Printexc.to_string e))));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | E_now ->
                Some (fun (k : (a, _) Effect.Deep.continuation) ->
                    Effect.Deep.continue k t.now)
            | E_delay span ->
                Some (fun (k : (a, _) Effect.Deep.continuation) ->
                    ignore (schedule t ~after:span (fun () ->
                        Effect.Deep.continue k ())))
            | E_suspend register ->
                Some (fun (k : (a, _) Effect.Deep.continuation) ->
                    register (fun v -> Effect.Deep.continue k v))
            | E_sim ->
                Some (fun (k : (a, _) Effect.Deep.continuation) ->
                    Effect.Deep.continue k t)
            | _ -> None);
      }
  in
  ignore (schedule t ~after:Time.zero body)

(* Fuel check, performed before an event is consumed: the queue still
   holds the event that would overrun, so a handler catching the
   exception sees a consistent (merely truncated) simulation. *)
let step t =
  if t.events_processed >= t.budget_events
     && not (Event_queue.is_empty t.queue)
  then
    raise
      (Budget_exhausted
         { events = t.events_processed; now = t.now;
           max_events = t.budget_events });
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, run) ->
      t.now <- time;
      t.events_processed <- t.events_processed + 1;
      (match t.observer with
      | None -> run ()
      | Some ob -> (
          ob.on_event_start ();
          (* the end hook fires even when the callback raises, so the
             profiler's in-event segmentation cannot wedge open *)
          match run () with
          | () -> ob.on_event_end ()
          | exception e ->
              ob.on_event_end ();
              raise e));
      (match t.error with Some e -> raise e | None -> ());
      true

let run ?until t =
  let continue () =
    (match until with
    | Some limit -> (
        match Event_queue.peek_time t.queue with
        | Some next -> Time.(next <= limit)
        | None -> false)
    | None -> not (Event_queue.is_empty t.queue))
  in
  while continue () do
    ignore (step t)
  done;
  match until with
  | Some limit when Time.(t.now < limit) && Event_queue.is_empty t.queue ->
      t.now <- limit
  | _ -> ()

let events_processed t = t.events_processed

(* The instant of the earliest pending event. This is what lets an
   external scheduler share one clock across many simulators: a guest
   whose next event lies beyond the scheduling horizon is asleep and can
   have its slice skipped without running (or perturbing) it. *)
let next_event_time t = Event_queue.peek_time t.queue

module Proc = struct
  let now () = Effect.perform E_now
  let sim () = Effect.perform E_sim

  let delay span =
    if span < 0 then invalid_arg "Proc.delay: negative span";
    if span = 0 then () else Effect.perform (E_delay span)

  let suspend register = Effect.perform (E_suspend register)

  let spawn ?name f =
    let t = sim () in
    spawn t ?name f
end

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { sim : t; mutable state : 'a state }
  type 'a t = 'a ivar

  let create sim = { sim; state = Empty [] }

  let fill iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        iv.state <- Full v;
        (* Resume waiters at the current instant, in FIFO order. *)
        List.iter
          (fun resume -> ignore (schedule iv.sim ~after:Time.zero
                                   (fun () -> resume v)))
          (List.rev waiters)

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
        Proc.suspend (fun resume ->
            match iv.state with
            | Full v -> resume v
            | Empty waiters -> iv.state <- Empty (resume :: waiters))
end

module Signal = struct
  (* Broadcast condition variable with optional timeout on wait. *)
  type nonrec t = { sim : t; mutable waiters : (unit -> unit) list }

  let create sim = { sim; waiters = [] }

  let broadcast s =
    let waiters = List.rev s.waiters in
    s.waiters <- [];
    List.iter
      (fun resume -> ignore (schedule s.sim ~after:Time.zero resume))
      waiters

  let wait s =
    Proc.suspend (fun resume -> s.waiters <- (fun () -> resume ()) :: s.waiters)

  (* Block until any of the given signals broadcasts. Waiter closures left
     registered on the other signals are guarded by a settled flag, so a
     later broadcast on those is a harmless no-op for this waiter. *)
  let wait_any signals =
    match signals with
    | [] -> invalid_arg "Signal.wait_any: no signals"
    | [ s ] -> wait s
    | _ ->
        Proc.suspend (fun resume ->
            let settled = ref false in
            let on_signal () =
              if not !settled then begin
                settled := true;
                resume ()
              end
            in
            List.iter (fun s -> s.waiters <- on_signal :: s.waiters) signals)

  let wait_timeout s span =
    Proc.suspend (fun resume ->
        let settled = ref false in
        let handle =
          schedule s.sim ~after:span (fun () ->
              if not !settled then begin
                settled := true;
                resume `Timeout
              end)
        in
        let on_signal () =
          if not !settled then begin
            settled := true;
            cancel s.sim handle;
            resume `Signaled
          end
        in
        s.waiters <- on_signal :: s.waiters)
end

module Mailbox = struct
  (* Unbounded FIFO channel between processes. *)
  type 'a mailbox = {
    sim : t;
    items : 'a Queue.t;
    mutable readers : ('a -> unit) list; (* at most one in practice *)
  }

  type 'a t = 'a mailbox

  let create sim = { sim; items = Queue.create (); readers = [] }

  let send mb v =
    match mb.readers with
    | resume :: rest ->
        mb.readers <- rest;
        ignore (schedule mb.sim ~after:Time.zero (fun () -> resume v))
    | [] -> Queue.push v mb.items

  let recv mb =
    if not (Queue.is_empty mb.items) then Queue.pop mb.items
    else Proc.suspend (fun resume -> mb.readers <- mb.readers @ [ resume ])

  let try_recv mb =
    if Queue.is_empty mb.items then None else Some (Queue.pop mb.items)

end
