(* SW SVt shared-memory command channels (paper §5.2, Figure 5).

   Each L2 vCPU gets two unidirectional command rings living in guest
   memory (exposed to L1 through an ivshmem-style PCI BAR): L0 posts
   CMD_VM_TRAP with the trap identifier and general-purpose register
   payload; the SVt-thread in L1 answers with CMD_VM_RESUME. Entries are
   serialized into simulated memory for real — the payload travels through
   the same bytes both sides map. The 16 GPRs go from the L2 vCPU's
   hardware context straight into the entry's bytes; no consumer of this
   model reads them back, so receiving decodes only the command code,
   reason, qualification and sequence number. Like the BAR both sides map
   once, a ring translates its page through the EPT on first use only and
   then reads and writes the guest's bytes on that host page directly.

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
  | Vm_trap of { seq : int; reason : Svt_arch.Exit_reason.t; qual : int64 }
  | Vm_resume of { seq : int }
  | Blocked (* SVT_BLOCKED injection notification (§5.3) *)
  | Corrupt of int (* unparseable entry: the raw command code *)

let regs_count = 16
let entry_bytes = 4 + 4 + 8 + 8 + (8 * regs_count)
let ring_entries = 16
let header_bytes = 8 (* head u32 | tail u32 *)

type ring = {
  aspace : Aspace.t;
  base : Gpa.t; (* page-aligned *)
  signal : Signal.t;
  mutable page : Bytes.t; (* the host page under [base]; empty until used *)
}

type t = {
  cost : Svt_arch.Cost_model.t;
  wait : Mode.wait_mechanism;
  placement : Mode.placement;
  core : Svt_arch.Smt_core.t; (* core whose sibling a poller would slow *)
  ctx : int; (* hardware context of [core] holding the L2 vCPU's GPRs *)
  to_svt : ring; (* L0 -> SVt-thread *)
  from_svt : ring; (* SVt-thread -> L0 *)
  probe : Probe.t;
  vcpu_index : int; (* the L2 vCPU these rings serve; -1 when unknown *)
  injector : Injector.t;
}

(* A ring (8 + 16 x 152 = 2,440 bytes) fits in the one page it starts,
   so its header and every entry are bytes of that page. *)
let () = assert (header_bytes + (ring_entries * entry_bytes) <= Svt_mem.Addr.page_size)

let make_ring sim aspace =
  { aspace;
    base = Aspace.alloc_guest_pages aspace 1;
    signal = Signal.create sim;
    page = Bytes.empty }

let create ?(vcpu_index = -1) ?injector ~machine ~aspace ~wait ~placement
    ~core ~ctx () =
  let sim = Svt_hyp.Machine.sim machine in
  {
    cost = Svt_hyp.Machine.cost machine;
    wait;
    placement;
    core;
    ctx;
    to_svt = make_ring sim aspace;
    from_svt = make_ring sim aspace;
    probe = Svt_hyp.Machine.probe machine;
    vcpu_index;
    injector = (match injector with Some i -> i | None -> Injector.none ());
  }

(* The ring's host page, pinned on its first access: one EPT
   translation, for write access, so a fault raises at that access.
   Pinning here rather than in [make_ring] leaves the page
   unmaterialized for a stack that never exits. *)
let page r =
  let p = r.page in
  if Bytes.length p > 0 then p
  else begin
    let p = Aspace.host_page r.aspace r.base in
    r.page <- p;
    p
  end

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let head r = get_u32 (page r) 0
let tail r = get_u32 (page r) 4
let set_head r v = set_u32 (page r) 0 (v land 0xFFFF)
let set_tail r v = set_u32 (page r) 4 (v land 0xFFFF)

(* Entry [i]'s offset in the page; [head - 1] at a wrapped head of 0 is
   the last entry. *)
let entry_off i = header_bytes + (i land (ring_entries - 1) * entry_bytes)

let code_of = function
  | Vm_trap _ -> 1
  | Vm_resume _ -> 2
  | Blocked -> 3
  | Corrupt _ -> invalid_arg "Channel: Corrupt commands cannot be posted"

(* Entry layout, little-endian: code u32 | reason u32 | qual u64 | seq u64
   | regs u64 x 16. Fields a command does not carry are zero. The regs are
   the GPRs of the channel's context at the moment of posting. *)
let put_payload t b off seq =
  Bytes.set_int64_le b (off + 16) (Int64.of_int seq);
  Svt_arch.Regfile.blit_gprs (Svt_arch.Smt_core.regfile t.core) ~ctx:t.ctx b
    ~off:(off + 24)

let serialize t r i cmd =
  let b = page r and off = entry_off i in
  Bytes.fill b off entry_bytes '\000';
  set_u32 b off (code_of cmd);
  match cmd with
  | Vm_trap { seq; reason; qual } ->
      set_u32 b (off + 4) (Svt_arch.Exit_reason.basic_number reason);
      Bytes.set_int64_le b (off + 8) qual;
      put_payload t b off seq
  | Vm_resume { seq } -> put_payload t b off seq
  | Blocked | Corrupt _ -> ()

let get_seq b off = Int64.to_int (Bytes.get_int64_le b (off + 16))

let deserialize r i =
  let b = page r and off = entry_off i in
  match get_u32 b off with
  | 1 ->
      (* a number no reason has reads back as [Vmcall] *)
      let reason =
        Option.value ~default:Svt_arch.Exit_reason.Vmcall
          (Svt_arch.Exit_reason.of_basic_number (get_u32 b (off + 4)))
      in
      Vm_trap
        { seq = get_seq b off; reason; qual = Bytes.get_int64_le b (off + 8) }
  | 2 -> Vm_resume { seq = get_seq b off }
  | 3 -> Blocked
  | n -> Corrupt n

let command_name = function
  | Vm_trap _ -> "vm-trap"
  | Vm_resume _ -> "vm-resume"
  | Blocked -> "blocked"
  | Corrupt _ -> "corrupt"

let full ring = (head ring - tail ring) land 0xFFFF >= ring_entries

(* A ring span opens and closes here; the off path (no sink installed)
   pays a branch at each end and builds nothing. *)
let span_start t = if Probe.is_on t.probe then Probe.now t.probe else Time.zero

(* Close the span of [cmd] sent ([send]) or received on [ring], on the
   hardware thread of the side that moved it. L0 sends to-svt and
   receives from-svt on the core's current context, the vCPU's. Under
   [Smt_sibling] placement the SVt-thread's side (receiving to-svt,
   sending from-svt) runs on the core's next context; the other
   placements put the SVt-thread on a core the model does not name, so
   its spans keep the vCPU's lane. *)
let span_end t ~send ring cmd start =
  if Probe.is_on t.probe then begin
    let core = t.core and to_svt = ring == t.to_svt in
    let ctx =
      if send <> to_svt && t.placement = Mode.Smt_sibling then
        (t.ctx + 1) mod Svt_arch.Smt_core.n_contexts core
      else Svt_arch.Smt_core.current core
    in
    Probe.span t.probe
      (if send then Svt_obs.Span.Ring_send else Svt_obs.Span.Ring_recv)
      ~vcpu:t.vcpu_index ~level:0 ~core:(Svt_arch.Smt_core.id core) ~ctx
      ~tags:
        [ ("cmd", command_name cmd);
          ("dir", if to_svt then "to-svt" else "from-svt") ]
      ~start ()
  end

(* Publish [cmd] at the current head. Precondition: not [full]. *)
let publish t ring cmd =
  let h = head ring in
  serialize t ring h cmd;
  set_head ring (h + 1);
  Signal.broadcast ring.signal

(* Producer: serialize, publish, and ding the monitored line. Charged to
   the caller's timeline and the given breakdown bucket. A full ring is
   reported as backpressure for the caller to back off and retry. *)
let post t ring bd cmd =
  let start = span_start t in
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
      publish t ring cmd;
      (* corruption smashes the command code of the entry just written *)
      if Injector.is_active inj && Injector.roll inj Svt_fault.Kind.Corrupt_ring
      then
        set_u32 (page ring)
          (entry_off (head ring - 1))
          (0xC0 + Injector.pick inj Svt_fault.Kind.Corrupt_ring 16);
      if
        Injector.is_active inj
        && Injector.roll inj Svt_fault.Kind.Dup_ring
        && not (full ring)
      then publish t ring cmd
    end;
    span_end t ~send:true ring cmd start;
    Ok ()
  end

(* Bounded-retry producer: back off on the virtual clock and re-post
   until the consumer drains the ring. Only gives up after the backoff
   schedule is exhausted — at that point the ring is genuinely wedged. *)
let rec post_retry_from t ring bd cmd attempt =
  match post t ring bd cmd with
  | Ok () -> ()
  | Error `Backpressure ->
      if attempt >= 8 then
        failwith "Channel: ring backpressure did not clear after 8 retries"
      else begin
        Injector.record t.injector Svt_fault.Outcome.Backpressure_retry;
        Proc.delay (Wait.retry_backoff ~attempt);
        post_retry_from t ring bd cmd (attempt + 1)
      end

let post_retry t ring bd cmd = post_retry_from t ring bd cmd 0

let pending ring = (head ring - tail ring) land 0xFFFF > 0

(* Consume the next command without waiting; caller pays the read cost. *)
let try_recv t ring bd =
  if pending ring then begin
    let start = span_start t in
    Breakdown.charge bd Breakdown.Channel t.cost.Svt_arch.Cost_model.ring_read;
    let tl = tail ring in
    let cmd = deserialize ring tl in
    set_tail ring (tl + 1);
    span_end t ~send:false ring cmd start;
    Some cmd
  end
  else None

(* The wake-up penalty of the configured wait mechanism, paid once per
   successful wait. *)
let charge_wake t bd =
  Breakdown.charge bd Breakdown.Channel
    (Wait.response_latency t.cost ~wait:t.wait ~placement:t.placement)

let rec recv_loop t ring bd =
  match try_recv t ring bd with
  | Some cmd ->
      if Wait.steals_cycles t.wait then
        Svt_arch.Smt_core.set_polling_siblings t.core 0;
      cmd
  | None ->
      Signal.wait ring.signal;
      charge_wake t bd;
      recv_loop t ring bd

(* Blocking receive with the full waiting-mechanism model. *)
let recv t ring bd =
  Breakdown.charge bd Breakdown.Channel (Wait.enter_cost t.cost t.wait);
  if Wait.steals_cycles t.wait then
    Svt_arch.Smt_core.set_polling_siblings t.core 1;
  recv_loop t ring bd

let to_svt t = t.to_svt
let from_svt t = t.from_svt
let ring_signal ring = ring.signal
let pending_ring = pending
