(* Local APIC model: per-vCPU interrupt state (IRR/ISR bitmaps, priority,
   EOI) plus the TSC-deadline timer. Timer re-arming is the MSR_WRITE exit
   traffic the paper profiles ("largely due to configuring timer
   interrupts (TSC deadline MSR)", §6.3.1/§6.3.3): guests write
   IA32_TSC_DEADLINE, the hypervisor traps it and arms a host timer here.

   Delivery is two-phase like hardware: [raise_vector] sets the IRR bit
   and notifies the owner (a vCPU run loop) through [on_pending]; the
   owner later [ack]s the highest-priority vector (moving IRR→ISR) and
   finally signals [eoi].

   Each register is one byte per vector (34 words with its header,
   against 257 for a [bool array]) and keeps a count of its set bytes, so
   the queries and updates that find nothing set (the common case on
   every vCPU run-loop turn) return without scanning 256 vectors. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator

type t = {
  sim : Simulator.t;
  irr : Bytes.t; (* interrupt request register, per vector *)
  isr : Bytes.t; (* in-service register *)
  mutable irr_count : int; (* vectors set in [irr] *)
  mutable isr_count : int; (* vectors set in [isr] *)
  mutable on_pending : (int -> unit) option;
  mutable deadline_handle : Svt_engine.Event_queue.handle option;
}

let vectors = 256

(* The vector the TSC-deadline timer raises. *)
let timer_vector = 0xEF

let bit_off = '\000'
let bit_on = '\001'
let is_set reg v = Bytes.get reg v <> bit_off

let create sim =
  {
    sim;
    irr = Bytes.make vectors bit_off;
    isr = Bytes.make vectors bit_off;
    irr_count = 0;
    isr_count = 0;
    on_pending = None;
    deadline_handle = None;
  }

let set_on_pending t f = t.on_pending <- Some f

let check_vector v =
  if v < 16 || v >= vectors then invalid_arg "Lapic: bad vector"

let raise_vector t v =
  check_vector v;
  if not (is_set t.irr v) then begin
    Bytes.set t.irr v bit_on;
    t.irr_count <- t.irr_count + 1;
    match t.on_pending with Some f -> f v | None -> ()
  end

let has_pending t = t.irr_count > 0

(* The highest set vector of a register that has at least one set.
   Higher vector number = higher priority, as in hardware. *)
let highest reg =
  let v = ref (vectors - 1) in
  while not (is_set reg !v) do
    decr v
  done;
  !v

(* Accept the highest-priority pending interrupt for service. *)
let ack t =
  if t.irr_count = 0 then None
  else begin
    let v = highest t.irr in
    Bytes.set t.irr v bit_off;
    t.irr_count <- t.irr_count - 1;
    if not (is_set t.isr v) then t.isr_count <- t.isr_count + 1;
    Bytes.set t.isr v bit_on;
    Some v
  end

(* Clear the highest in-service vector. *)
let eoi t =
  if t.isr_count > 0 then begin
    Bytes.set t.isr (highest t.isr) bit_off;
    t.isr_count <- t.isr_count - 1
  end

let in_service t v = is_set t.isr v

(* TSC-deadline timer: arm an absolute deadline; a new write replaces the
   previous deadline (as the MSR does); writing 0 disarms. *)
let arm_deadline t ~deadline =
  (match t.deadline_handle with
  | Some h -> Simulator.cancel t.sim h
  | None -> ());
  t.deadline_handle <- None;
  if Time.(deadline > Time.zero) then begin
    let now = Simulator.now t.sim in
    let after = Time.max Time.zero (Time.diff deadline now) in
    t.deadline_handle <-
      Some
        (Simulator.schedule t.sim ~after (fun () ->
             t.deadline_handle <- None;
             raise_vector t timer_vector))
  end
