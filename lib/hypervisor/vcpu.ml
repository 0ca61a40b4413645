(* A virtual CPU: the execution vehicle for guest programs.

   The guest program runs as a simulator process; every privileged
   operation it performs goes through the [privileged] hook, which the
   system wiring (lib/core) points at the trap-handling path for the
   active run mode. Interrupts arrive asynchronously: devices and timers
   raise LAPIC vectors or enqueue host-side events, and the vCPU drains
   them at interruptible points (compute slices, HLT), exactly where a
   real CPU would recognize them. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Signal = Simulator.Signal
module Lapic = Svt_interrupt.Lapic
module Smt_core = Svt_arch.Smt_core

(* Host-scheduler view of the vCPU. A stand-alone stack is always
   [Running] (it owns its whole machine); under lib/sched the host flips
   Running/Runnable at grant/preempt boundaries, while the vCPU itself
   reports Blocked during the architectural HLT wait. *)
type run_state = Runnable | Running | Blocked

type t = {
  machine : Machine.t;
  vm : Vm.t;
  index : int;
  core_id : int; (* pinned physical core *)
  mutable hw_ctx : int; (* hardware context hosting this level's state *)
  lapic : Lapic.t;
  msrs : Svt_arch.Msr.File.t;
  wake : Signal.t;
  mutable run_state : run_state;
  mutable privileged : t -> Exit.info -> unit;
  mutable deliver_guest_irq : t -> int -> unit;
  mutable deliver_host_event : t -> vector:int -> work:(unit -> unit) -> unit;
  host_events : (int * (unit -> unit)) Queue.t;
  isr : (int, unit -> unit) Hashtbl.t;
  breakdown : Breakdown.t;
  mutable halted_ns : int; (* time spent idle in HLT *)
}

let default_privileged _ (info : Exit.info) =
  failwith
    (Printf.sprintf "Vcpu: no trap path wired for %s"
       (Svt_arch.Exit_reason.name info.reason))

let default_deliver _ vector =
  failwith (Printf.sprintf "Vcpu: no interrupt delivery wired (vector %d)" vector)

let default_deliver_host _ ~vector ~work =
  ignore vector;
  (* with no hypervisor interposition wired, just run the event *)
  work ()

let create ~machine ~vm ~index ~core_id ~hw_ctx =
  let sim = Machine.sim machine in
  let t =
    {
      machine;
      vm;
      index;
      core_id;
      hw_ctx;
      lapic = Lapic.create sim;
      msrs = Svt_arch.Msr.File.create ();
      wake = Signal.create sim;
      run_state = Running;
      privileged = default_privileged;
      deliver_guest_irq = default_deliver;
      deliver_host_event = default_deliver_host;
      host_events = Queue.create ();
      isr = Hashtbl.create 8;
      breakdown = Breakdown.create ();
      halted_ns = 0;
    }
  in
  Lapic.set_on_pending t.lapic (fun _vector -> Signal.broadcast t.wake);
  t

let machine t = t.machine
let vm t = t.vm
let index t = t.index
let core_id t = t.core_id
let core t = Machine.core t.machine t.core_id
let hw_ctx t = t.hw_ctx
let set_hw_ctx t ctx = t.hw_ctx <- ctx
let lapic t = t.lapic
let msrs t = t.msrs
let breakdown t = t.breakdown
let halted_time t = Time.of_ns t.halted_ns
let run_state t = t.run_state
let set_run_state t s = t.run_state <- s
let name t = Printf.sprintf "%s/vcpu%d" (Vm.name t.vm) t.index

let set_privileged t f = t.privileged <- f
let set_deliver_guest_irq t f = t.deliver_guest_irq <- f
let set_deliver_host_event t f = t.deliver_host_event <- f
let wake_signal t = t.wake
let register_isr t ~vector f = Hashtbl.replace t.isr vector f
let isr_handler t vector = Hashtbl.find_opt t.isr vector

(* Perform a privileged operation: trap into the hypervisor stack. *)
let trap t info = t.privileged t info

let pending t = (not (Queue.is_empty t.host_events)) || Lapic.has_pending t.lapic

(* Host-side events are closures that need the vCPU's physical CPU (e.g.
   an external interrupt destined for the L1 hypervisor running under this
   vCPU's thread): they run in the vCPU process at the next interruptible
   point, charging whatever costs they model. *)
let enqueue_host_event t ~vector work =
  Queue.add (vector, work) t.host_events;
  Signal.broadcast t.wake

(* Pop one raw host event for a caller that wants to service it through a
   special path (the SW SVt blocked-wait loop); [None] when none, which
   allocates nothing. *)
let take_host_event t =
  if Queue.is_empty t.host_events then None
  else Some (snd (Queue.take t.host_events))

(* Drain pending work: host events first (they model higher-priority
   physical interrupts), then guest-visible LAPIC vectors. *)
let rec drain t =
  match Queue.take_opt t.host_events with
  | Some (vector, work) ->
      t.deliver_host_event t ~vector ~work;
      drain t
  | None -> (
      match Lapic.ack t.lapic with
      | Some vector ->
          t.deliver_guest_irq t vector;
          drain t
      | None -> ())

(* Straight-line guest computation, interruptible by pending events. The
   span is scaled by the SMT interference factor of the pinned core (a
   polling sibling steals issue slots — §6.1). *)
let compute t span =
  if Time.(span > Time.zero) then begin
    let total = Smt_core.scale_compute (core t) span in
    let rec go remaining =
      drain t;
      if Time.(remaining > Time.zero) then begin
        let started = Proc.now () in
        match Signal.wait_timeout t.wake remaining with
        | `Timeout -> Breakdown.note t.breakdown Breakdown.L2_guest remaining
        | `Signaled ->
            let ran = Time.diff (Proc.now ()) started in
            Breakdown.note t.breakdown Breakdown.L2_guest ran;
            go (Time.sub remaining ran)
      end
    in
    go total;
    drain t
  end
  else drain t

(* Idle until an interrupt or host event arrives (the architectural HLT
   state; the HLT *exit* is taken by the caller before idling). *)
let wait_for_interrupt t =
  let started = Proc.now () in
  let before = t.run_state in
  t.run_state <- Blocked;
  while not (pending t) do
    Signal.wait t.wake
  done;
  t.run_state <- before;
  t.halted_ns <- t.halted_ns + Time.to_ns (Time.diff (Proc.now ()) started);
  Svt_obs.Probe.span (Machine.probe t.machine) Svt_obs.Span.Halt
    ~vcpu:t.index ~level:(Vm.level t.vm) ~core:t.core_id ~ctx:t.hw_ctx
    ~start:started ();
  drain t

(* Spawn the guest program as this vCPU's process. *)
let spawn_program t f =
  Simulator.spawn (Machine.sim t.machine) ~name:(name t) (fun () -> f t)
