(* SW SVt shared-memory command channels (paper §5.2, Figure 5).

   Each L2 vCPU gets two unidirectional command rings living in guest
   memory (exposed to L1 through an ivshmem-style PCI BAR): L0 posts
   CMD_VM_TRAP with the trap identifier and general-purpose register
   payload; the SVt-thread in L1 answers with CMD_VM_RESUME. Entries are
   serialized into simulated memory for real — the payload travels through
   the same bytes both sides map.

   Waiting is modeled per the chosen mechanism (polling / mwait / mutex)
   and placement: the consumer pays the response latency on wake-up, and a
   polling consumer additionally steals issue slots from its SMT sibling
   for as long as it spins.

   The channel is also a fault-injection site (ring-send faults: drop,
   duplicate, delay, corrupt) and degrades gracefully: a full ring is a
   typed [`Backpressure] result instead of an abort, and an entry whose
   command code does not parse deserializes to [Corrupt] for the consumer
   to discard. Commands carry a sequence number so consumers can tell a
   duplicated or re-posted command from a fresh one. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Signal = Simulator.Signal
module Gpa = Svt_mem.Addr.Gpa
module Aspace = Svt_mem.Address_space
module Breakdown = Svt_hyp.Breakdown
module Probe = Svt_obs.Probe
module Injector = Svt_fault.Injector

type command =
  | Vm_trap of {
      seq : int;
      reason : Svt_arch.Exit_reason.t;
      qual : int64;
      regs : int64 array;
    }
  | Vm_resume of { seq : int; regs : int64 array }
  | Blocked (* SVT_BLOCKED injection notification (§5.3) *)
  | Corrupt of int (* unparseable entry: the raw command code *)

let regs_count = 16
let entry_bytes = 4 + 4 + 8 + 8 + (8 * regs_count)
let ring_entries = 16
let header_bytes = 8 (* head u32 | tail u32 *)

type ring = {
  aspace : Aspace.t;
  base : Gpa.t;
  signal : Signal.t;
}

type t = {
  cost : Svt_arch.Cost_model.t;
  wait : Mode.wait_mechanism;
  placement : Mode.placement;
  core : Svt_arch.Smt_core.t; (* core whose sibling a poller would slow *)
  to_svt : ring; (* L0 -> SVt-thread *)
  from_svt : ring; (* SVt-thread -> L0 *)
  probe : Probe.t;
  vcpu_index : int; (* the L2 vCPU these rings serve; -1 when unknown *)
  injector : Injector.t;
}

let make_ring sim aspace =
  let pages = (header_bytes + (ring_entries * entry_bytes) + Svt_mem.Addr.page_size - 1)
              / Svt_mem.Addr.page_size in
  { aspace;
    base = Aspace.alloc_guest_pages aspace pages;
    signal = Signal.create sim }

let create ?(vcpu_index = -1) ?injector ~machine ~aspace ~wait ~placement
    ~core () =
  let sim = Svt_hyp.Machine.sim machine in
  {
    cost = Svt_hyp.Machine.cost machine;
    wait;
    placement;
    core;
    to_svt = make_ring sim aspace;
    from_svt = make_ring sim aspace;
    probe = Svt_hyp.Machine.probe machine;
    vcpu_index;
    injector = (match injector with Some i -> i | None -> Injector.none ());
  }

let head r = Aspace.read_u32 r.aspace r.base
let tail r = Aspace.read_u32 r.aspace (Gpa.add r.base 4)
let set_head r v = Aspace.write_u32 r.aspace r.base (v land 0xFFFF)
let set_tail r v = Aspace.write_u32 r.aspace (Gpa.add r.base 4) (v land 0xFFFF)

let entry_addr r i =
  Gpa.add r.base (header_bytes + (i mod ring_entries * entry_bytes))

let code_of = function
  | Vm_trap _ -> 1
  | Vm_resume _ -> 2
  | Blocked -> 3
  | Corrupt _ -> invalid_arg "Channel: Corrupt commands cannot be posted"

let serialize r i cmd =
  let a = entry_addr r i in
  Aspace.write_u32 r.aspace a (code_of cmd);
  let reason_num, qual, seq, regs =
    match cmd with
    | Vm_trap { seq; reason; qual; regs } ->
        (Svt_arch.Exit_reason.basic_number reason, qual, seq, regs)
    | Vm_resume { seq; regs } -> (0, 0L, seq, regs)
    | Blocked -> (0, 0L, 0, [||])
    | Corrupt _ -> assert false
  in
  Aspace.write_u32 r.aspace (Gpa.add a 4) reason_num;
  Aspace.write_u64 r.aspace (Gpa.add a 8) qual;
  Aspace.write_u64 r.aspace (Gpa.add a 16) (Int64.of_int seq);
  Array.iteri
    (fun j v -> Aspace.write_u64 r.aspace (Gpa.add a (24 + (8 * j))) v)
    (Array.sub regs 0 (min regs_count (Array.length regs)))

let reason_table =
  (* reverse mapping from basic exit numbers, for deserialization *)
  let tbl = Hashtbl.create 64 in
  let open Svt_arch.Exit_reason in
  List.iter
    (fun r -> Hashtbl.replace tbl (basic_number r) r)
    [ Cpuid; Msr_read; Msr_write; Ept_misconfig; Ept_violation;
      Io_instruction; Hlt; External_interrupt; Eoi_induced; Vmcall;
      Apic_write; Apic_access; Pause_exit; Interrupt_window; Exception_nmi;
      Preemption_timer; Mwait_exit ];
  tbl

let deserialize r i =
  let a = entry_addr r i in
  let code = Aspace.read_u32 r.aspace a in
  let reason_num = Aspace.read_u32 r.aspace (Gpa.add a 4) in
  let qual = Aspace.read_u64 r.aspace (Gpa.add a 8) in
  let seq = Int64.to_int (Aspace.read_u64 r.aspace (Gpa.add a 16)) in
  let regs =
    Array.init regs_count (fun j -> Aspace.read_u64 r.aspace (Gpa.add a (24 + (8 * j))))
  in
  match code with
  | 1 ->
      let reason =
        Option.value
          (Hashtbl.find_opt reason_table reason_num)
          ~default:Svt_arch.Exit_reason.Vmcall
      in
      Vm_trap { seq; reason; qual; regs }
  | 2 -> Vm_resume { seq; regs }
  | 3 -> Blocked
  | n -> Corrupt n

let command_name = function
  | Vm_trap _ -> "vm-trap"
  | Vm_resume _ -> "vm-resume"
  | Blocked -> "blocked"
  | Corrupt _ -> "corrupt"

let direction_name t ring = if ring == t.to_svt then "to-svt" else "from-svt"

let full ring = (head ring - tail ring) land 0xFFFF >= ring_entries

(* Publish [cmd] at the current head. Precondition: not [full]. *)
let publish ring cmd =
  let h = head ring in
  serialize ring h cmd;
  set_head ring (h + 1);
  Signal.broadcast ring.signal

(* Producer: serialize, publish, and ding the monitored line. Charged to
   the caller's timeline and the given breakdown bucket. A full ring is
   reported as backpressure for the caller to back off and retry. *)
let post t ring bd cmd =
  let start = if Probe.is_on t.probe then Probe.now t.probe else Time.zero in
  Breakdown.charge bd Breakdown.Channel t.cost.Svt_arch.Cost_model.ring_write;
  let inj = t.injector in
  if Injector.is_active inj && Injector.roll inj Svt_fault.Kind.Delay_ring then
    Proc.delay (Time.of_ns (Svt_fault.Kind.param_ns Svt_fault.Kind.Delay_ring));
  if full ring then Error `Backpressure
  else begin
    let dropped =
      Injector.is_active inj && Injector.roll inj Svt_fault.Kind.Drop_ring
    in
    if not dropped then begin
      publish ring cmd;
      (* corruption smashes the command code of the entry just written *)
      if Injector.is_active inj && Injector.roll inj Svt_fault.Kind.Corrupt_ring
      then
        Aspace.write_u32 ring.aspace
          (entry_addr ring (head ring - 1))
          (0xC0 + Injector.pick inj Svt_fault.Kind.Corrupt_ring 16);
      if
        Injector.is_active inj
        && Injector.roll inj Svt_fault.Kind.Dup_ring
        && not (full ring)
      then publish ring cmd
    end;
    if Probe.is_on t.probe then
      Probe.span t.probe Svt_obs.Span.Ring_send ~vcpu:t.vcpu_index ~level:0
        ~core:(Svt_arch.Smt_core.id t.core)
        ~ctx:(Svt_arch.Smt_core.current t.core)
        ~tags:[ ("cmd", command_name cmd); ("dir", direction_name t ring) ]
        ~start ();
    Ok ()
  end

(* Bounded-retry producer: back off on the virtual clock and re-post
   until the consumer drains the ring. Only gives up after the backoff
   schedule is exhausted — at that point the ring is genuinely wedged. *)
let post_retry t ring bd cmd =
  let rec go attempt =
    match post t ring bd cmd with
    | Ok () -> ()
    | Error `Backpressure ->
        if attempt >= 8 then
          failwith "Channel: ring backpressure did not clear after 8 retries"
        else begin
          Injector.record t.injector Svt_fault.Outcome.Backpressure_retry;
          Proc.delay (Wait.retry_backoff ~attempt);
          go (attempt + 1)
        end
  in
  go 0

let pending ring = (head ring - tail ring) land 0xFFFF > 0

(* Consume the next command without waiting; caller pays the read cost. *)
let try_recv t ring bd =
  if pending ring then begin
    let start = if Probe.is_on t.probe then Probe.now t.probe else Time.zero in
    Breakdown.charge bd Breakdown.Channel t.cost.Svt_arch.Cost_model.ring_read;
    let tl = tail ring in
    let cmd = deserialize ring tl in
    set_tail ring (tl + 1);
    if Probe.is_on t.probe then
      Probe.span t.probe Svt_obs.Span.Ring_recv ~vcpu:t.vcpu_index ~level:0
        ~core:(Svt_arch.Smt_core.id t.core)
        ~ctx:(Svt_arch.Smt_core.current t.core)
        ~tags:[ ("cmd", command_name cmd); ("dir", direction_name t ring) ]
        ~start ();
    Some cmd
  end
  else None

(* The wake-up penalty of the configured wait mechanism, paid once per
   successful wait. *)
let charge_wake t bd =
  Breakdown.charge bd Breakdown.Channel
    (Wait.response_latency t.cost ~wait:t.wait ~placement:t.placement)

(* Blocking receive with the full waiting-mechanism model. [on_idle] runs
   each time the consumer wakes without a command present (used by L0 to
   service interrupts for L1 while blocked — the SVT_BLOCKED protocol). *)
let recv t ring bd ?(on_idle = fun () -> ()) () =
  Breakdown.charge bd Breakdown.Channel (Wait.enter_cost t.cost t.wait);
  if Wait.steals_cycles t.wait then
    Svt_arch.Smt_core.set_polling_siblings t.core 1;
  let rec loop () =
    match try_recv t ring bd with
    | Some cmd ->
        if Wait.steals_cycles t.wait then
          Svt_arch.Smt_core.set_polling_siblings t.core 0;
        cmd
    | None ->
        on_idle ();
        if pending ring then loop ()
        else begin
          Signal.wait ring.signal;
          charge_wake t bd;
          loop ()
        end
  in
  loop ()

let to_svt t = t.to_svt
let from_svt t = t.from_svt
let ring_signal ring = ring.signal
let pending_ring = pending
