(* Instrumentation buckets reproducing the paper's Table 1: every delay the
   trap-handling protocol pays is charged to one of the circled parts
   ⓪–⑤. The SVt modes add two buckets of their own (command-channel time
   and cross-context register accesses) so the extended breakdown stays
   complete: the sum of buckets always equals elapsed vCPU time. *)

module Time = Svt_engine.Time
module Proc = Svt_engine.Simulator.Proc

type bucket =
  | L2_guest (* ⓪ the guest's own code *)
  | Switch_l2_l0 (* ① *)
  | Transform (* ② *)
  | L0_handler (* ③ *)
  | Switch_l0_l1 (* ④ *)
  | L1_handler (* ⑤, includes L1's aux exits as in the paper *)
  | Channel (* SW SVt command rings and waits *)
  | Ctxt_access (* HW SVt ctxtld/ctxtst *)

let all_buckets =
  [ L2_guest; Switch_l2_l0; Transform; L0_handler; Switch_l0_l1; L1_handler;
    Channel; Ctxt_access ]

let bucket_name = function
  | L2_guest -> "0:L2"
  | Switch_l2_l0 -> "1:Switch L2<->L0"
  | Transform -> "2:Transform vmcs02/vmcs12"
  | L0_handler -> "3:L0 handler"
  | Switch_l0_l1 -> "4:Switch L0<->L1"
  | L1_handler -> "5:L1 handler"
  | Channel -> "6:SVt channel"
  | Ctxt_access -> "7:ctxtld/ctxtst"

let index = function
  | L2_guest -> 0
  | Switch_l2_l0 -> 1
  | Transform -> 2
  | L0_handler -> 3
  | Switch_l0_l1 -> 4
  | L1_handler -> 5
  | Channel -> 6
  | Ctxt_access -> 7

type t = { acc : int array; mutable exits : int }

let create () = { acc = Array.make 8 0; exits = 0 }

(* Charge simulated time to a bucket: the vCPU process actually spends the
   span, and the accumulator records where it went. *)
let charge t bucket span =
  if Time.(span > Time.zero) then begin
    Proc.delay span;
    t.acc.(index bucket) <- t.acc.(index bucket) + span
  end

(* Record time spent waiting (e.g. mwait) without a [Proc.delay] of its
   own — the wait already advanced the clock. *)
let note t bucket span =
  if Time.(span > Time.zero) then
    t.acc.(index bucket) <- t.acc.(index bucket) + span

let count_exit t = t.exits <- t.exits + 1
let exits t = t.exits
let time t bucket = Time.of_ns t.acc.(index bucket)
let total t = Time.of_ns (Array.fold_left ( + ) 0 t.acc)
let reset t =
  Array.fill t.acc 0 (Array.length t.acc) 0;
  t.exits <- 0

(* Table-1-shaped rows: (part, time, percent). *)
let rows t =
  let total_ns = Time.to_ns (total t) in
  List.filter_map
    (fun b ->
      let ns = t.acc.(index b) in
      if ns = 0 && (b = Channel || b = Ctxt_access) then None
      else
        Some
          ( bucket_name b,
            Time.of_ns ns,
            if total_ns = 0 then 0.0
            else 100.0 *. float_of_int ns /. float_of_int total_ns ))
    all_buckets
