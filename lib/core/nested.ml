(* Nested trap handling: the complete life-cycle of an L2 exit
   (paper Algorithm 1), under all three run modes.

   Baseline — the state of the art the paper measures in Table 1:
     L2 traps into L0 (①); L0 reflects the exit state from vmcs02 into
     vmcs12 (②), loads vmcs01 and injects the trap (③), and world-switches
     into L1 (④); L1 handles the trap against vmcs01', taking auxiliary
     traps into L0 for non-shadowed fields (⑤); L1's VMRESUME traps back
     into L0 (④), which re-transforms vmcs12 into vmcs02 (③②) and resumes
     L2 (①).

   SW SVt (§5.2) — the L0↔L1 world switch is replaced by a command-ring
     round trip to the SVt-thread pinned on the SMT sibling; everything
     else (the L2↔L0 switch, the transforms) stays.

   HW SVt (§4) — every world switch becomes a hardware-context stall/
     resume, and the register save/restore folded into the handlers is
     replaced by cross-context register accesses on the shared physical
     register file.

   OoH (PAPERS.md) — the delegation alternative: exits in the delegation
     set ([Svt_arch.Ooh]) are delivered by hardware straight into L1 with
     no L0 reflection and no transform; residual exits take the baseline
     path plus a delegation re-arm. A corrupted *delegated* vmcs12 field
     surfaces to L1 as a delegation fault (L1 repairs it locally), not as
     an L0-reflected entry failure.

   All costs flow through the per-vCPU Breakdown buckets, so Table 1 is
   literally a printout of this module's execution. Each leg states its
   cost once, as a [Svt_hyp.Cost] value built below at module
   initialisation; the spans of legs that only charge carry its terms
   as their [cost] tag.

   Fault tolerance: the path degrades rather than aborts. An invalid
   vmcs12 (corrupted by a fault or by a malicious L1) is reflected to L1
   as a failed VM entry (§2.1) instead of reaching hardware; a stalled
   SVt round trip is re-posted under a virtual-clock watchdog and, if it
   stays stuck, the vCPU falls back from SVt to baseline trap-and-emulate
   for the rest of the run (recorded as a downgrade). *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Breakdown = Svt_hyp.Breakdown
module Cost = Svt_hyp.Cost
module Cost_model = Svt_arch.Cost_model
module Smt_core = Svt_arch.Smt_core
module Vmcs = Svt_vmcs.Vmcs
module Field = Svt_vmcs.Field
module Transform = Svt_vmcs.Transform
module Exit_reason = Svt_arch.Exit_reason
module Vcpu = Svt_hyp.Vcpu
module Probe = Svt_obs.Probe
module Obs_span = Svt_obs.Span
module Injector = Svt_fault.Injector
module Fault_kind = Svt_fault.Kind
module Fault_outcome = Svt_fault.Outcome

type t = {
  machine : Svt_hyp.Machine.t;
  cost : Cost_model.t;
  mode : Mode.t;
  vcpu : Vcpu.t; (* the L2 vCPU this path serves *)
  core : Smt_core.t;
  script : Svt_hyp.L1_script.t;
  vmcs01 : Vmcs.t; (* L0's descriptor for L1 *)
  vmcs12 : Vmcs.t; (* L0's shadow of L1's vmcs01' *)
  vmcs02 : Vmcs.t; (* the descriptor L2 actually runs on *)
  l1_ept : Svt_mem.Ept.t; (* for pointer translation in transforms *)
  l0_ept_pointer : int64;
  injector : Injector.t;
  (* SW SVt state *)
  channel : Channel.t option;
  resume_signals : Simulator.Signal.t list;
      (* the resume ring's and the vCPU's wake-up, which [wait_resume]
         waits on: built once, not per exit *)
  (* the exit handed to the SVt-thread, while it is pending: its info
     and the effect completing it, else [no_exit] and [ignore] *)
  mutable pending : bool;
  mutable pending_info : Svt_hyp.Exit.info;
  mutable pending_effect : unit -> unit;
  mutable seq : int; (* episode sequence number carried by ring commands *)
  mutable thread_last_done : int; (* last seq the SVt-thread answered *)
  mutable downgraded : bool; (* watchdog fell back to baseline for good *)
  (* HW SVt hardware context assignment (paper §4's worked example) *)
  ctx_l0 : int;
  ctx_l1 : int;
  ctx_l2 : int;
  mutable last_episode_end : Time.t;
  mutable blocked_injections : int; (* SVT_BLOCKED events serviced (§5.3) *)
  metrics : Svt_stats.Metrics.t;
  (* the [l2_exit.<REASON>] counter and [l2_exit_time.<REASON>] timer
     cells, by basic exit number; [no_cell] until the reason is first
     taken, so a reason never taken still has no counter *)
  exit_counts : int ref array;
  exit_times : int ref array;
}

(* Charge cost value [v] for an exit of profile [p]. *)
let pay t p v = Cost.apply (Vcpu.breakdown t.vcpu) t.cost p 0 v

let no_exit = Svt_hyp.Exit.of_action Svt_hyp.Exit.Pause

let clear_pending t =
  t.pending <- false;
  t.pending_info <- no_exit;
  t.pending_effect <- ignore

(* --- observability ------------------------------------------------------ *)

let no_cell = ref 0

let probe t = Svt_hyp.Machine.probe t.machine

let tracing t = Probe.is_on (probe t)

(* A protocol leg is bracketed by [leg_start] and [leg_end], which emit
   a span of [kind] over it; the off path (no sink installed) pays a
   branch at each end and builds nothing. A leg whose tags are built per
   call checks [tracing] before building them. *)
let leg_start t = if tracing t then Probe.now (probe t) else Time.zero

let leg_end t kind tags start =
  if tracing t then
    Probe.span (probe t) kind ~vcpu:(Vcpu.index t.vcpu) ~level:2
      ~core:(Smt_core.id t.core) ~ctx:(Smt_core.current t.core) ~tags ~start ()

(* Most legs only charge: a span over the charges [before] and [after]
   the hardware-context switch an HW SVt leg makes, its [tags] ending in
   their [cost] tag. Legs, like every cost value here, are built once. *)
type leg = { kind : Obs_span.kind; tags : (string * string) list; before : Cost.t; after : Cost.t }

let leg ?(before = []) kind tags after =
  { kind; tags = tags @ [ Cost.tag (before @ after) ]; before; after }

let run_leg t p l switch =
  let start = leg_start t in
  if l.before != [] then pay t p l.before;
  switch t.core;
  pay t p l.after;
  leg_end t l.kind l.tags start

(* --- cost values, by Table 1 part -------------------------------------- *)

let switch_l2 = Cost.charge Breakdown.Switch_l2_l0 (* ① *)
let l0 = Cost.charge Breakdown.L0_handler (* ③ *)
let switch_l1 = Cost.charge Breakdown.Switch_l0_l1 (* ④ *)
let l1 = Cost.charge Breakdown.L1_handler (* ⑤ *)
let to_l1 = [ switch_l1 "resume_hw+l1_world_extra" ]
let from_l1 = [ switch_l1 "trap_hw+l1_world_extra" ]
let world_switch = leg Obs_span.World_switch
let resume = leg Obs_span.Svt_resume

(* ③ decide to reflect, saving the L2-world state the handler needs *)
let reflect = [ l0 "l0_reflect_decision"; l0 "l0_ctx_mgmt_l2.half" ]

(* ③ load vmcs01, inject the trap for L1, prepare L1's world *)
let load_vmcs01 = [ l0 "vmptrld"; l0 "l0_inject_exit_info"; l0 "l0_ctx_mgmt_l1.half" ]

(* ③ emulate the VM entry, restore the L2 world *)
let emulate_entry =
  [ l0 "l0_emulate_vmentry"; l0 "l0_ctx_mgmt_l1.rest"; l0 "vmptrld"; l0 "l0_ctx_mgmt_l2.rest" ]

(* An auxiliary round trip into L0 (a vmread/vmwrite of a non-shadowed
   vmcs01' field, or a VMX instruction L0 handles inline): trap, emulate,
   resume, charged to one bucket (⑤ in L1's handler, as in the paper).
   The SVt-thread reaches a memory-backed sysreg image (ARM NV/VHE)
   directly, with no trap. *)
type aux = { hw_enter : Cost.t; hw_leave : Cost.t; direct : Cost.t; trap : Cost.t }

let aux charge =
  { hw_enter = [ charge "thread_switch"; charge "l0_emulate_aux" ];
    hw_leave = [ charge "thread_switch" ];
    direct = [ charge "svt_sysreg_direct" ];
    trap = [ charge "trap_hw"; charge "l0_emulate_aux"; charge "resume_hw" ] }

let aux_in_l1, aux_in_l0 = (aux l1, aux l0)

let aux_round_trip t p legs ~guest_ctx =
  match t.mode with
  | Mode.Hw_svt ->
      Smt_core.activate t.core t.ctx_l0;
      pay t p legs.hw_enter;
      Smt_core.activate t.core guest_ctx;
      pay t p legs.hw_leave
  | Mode.Sw_svt _ when t.cost.svt_sysreg_direct <> None -> pay t p legs.direct
  | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh -> pay t p legs.trap

(* --- the L1 handler body, shared by every mode ------------------------- *)

(* Run L1's trap handler for [info] (see [Svt_hyp.L1_script]): half its
   pure work, its aux traps, the semantic [effect], the rest of the work.
   [aux t p reason] performs one aux trap; each path passes a top-level
   function, so a handler run builds nothing. *)
let run_l1_handler t p (info : Svt_hyp.Exit.info) ~(effect : unit -> unit) ~aux =
  pay t p Svt_hyp.L1_script.head;
  for i = 0 to Svt_hyp.L1_script.aux_count t.script info.reason - 1 do
    aux t p (Svt_hyp.L1_script.aux_reason i)
  done;
  effect ();
  pay t p Svt_hyp.L1_script.tail

(* An aux trap taken into L0, and its effect on the shadow VMCS. *)
let aux_trap t p reason =
  aux_round_trip t p aux_in_l1 ~guest_ctx:t.ctx_l1;
  match reason with
  | Exit_reason.Vmread -> ignore (Vmcs.read t.vmcs12 Field.Guest_rip)
  | Exit_reason.Vmwrite ->
      Vmcs.write t.vmcs12 Field.Guest_rip
        (Int64.add (Vmcs.peek t.vmcs12 Field.Guest_rip) 2L)
  | _ -> ()

(* --- transforms -------------------------------------------------------- *)

(* ② Charge a transform's cost, by the fields it copied, as a
   vmcs-transform leg. The transform itself takes no virtual time, so
   the leg starts as it returns. *)
let transform = [ Cost.charge Breakdown.Transform "transform_base+transform_per_field*fields" ]
let transform_tags = [ Cost.tag transform ]

let transform_leg t p ~direction (r : Transform.result) =
  let start = leg_start t in
  Cost.apply (Vcpu.breakdown t.vcpu) t.cost p r.fields_copied transform;
  if tracing t then
    leg_end t Obs_span.Vmcs_transform (Transform.span_tags ~direction r transform_tags) start

let transform_exit t p =
  transform_leg t p ~direction:"exit" (Transform.exit ~vmcs02:t.vmcs02 ~vmcs12:t.vmcs12)

let transform_entry t p =
  transform_leg t p ~direction:"entry"
    (Transform.entry ~vmcs12:t.vmcs12 ~vmcs02:t.vmcs02 ~l1_ept:t.l1_ept
       ~l0_ept_pointer:t.l0_ept_pointer)

(* Reflect a failed VM entry to L1 (§2.1): instead of launching a guest
   from an invalid vmcs02, L0 re-enters L1 with the entry-failure
   indication; L1's handler observes it and corrects vmcs01'. *)
let fail_to_l1 = world_switch [ ("leg", "l0-l1"); ("cause", "entry-fail") ] to_l1
let fail_fixup = [ l1 "l1_entry_fail_fixup" ]
let fail_from_l1 = world_switch [ ("leg", "l1-l0"); ("cause", "entry-fail") ] from_l1

let reflect_entry_failure t p =
  Injector.record t.injector Fault_outcome.Entry_fail_reflected;
  run_leg t p fail_to_l1 ignore;
  pay t p fail_fixup;
  run_leg t p fail_from_l1 ignore

(* OoH: the hardware's delegation checks caught a bad *delegated* field
   at an L1-issued entry. The fault is delivered straight to L1 — no L0
   world switch — so the repair loop costs a delegated dispatch plus
   L1's fix-up, and L0 is only involved to re-arm the delegation
   controls afterwards. *)
let delegation_fault =
  world_switch [ ("leg", "l2-l1"); ("cause", "delegation-fault") ]
    [ switch_l1 "ooh_delegated_dispatch" ]

let delegation_fixup = [ l1 "l1_delegation_fault_fixup"; l1 "ooh_delegation_setup" ]

let reflect_delegation_fault t p =
  Injector.record t.injector Fault_outcome.Delegation_fault_reflected;
  run_leg t p delegation_fault ignore;
  pay t p delegation_fixup

(* Dispatch a batch of entry-check failures to the right repair path.
   Under OoH, failures on delegated fields surface to L1 as delegation
   faults; everything else (and every failure under the other modes)
   takes the reflected VM-entry-failure path. Either way the offending
   fields are reset before the caller retries. *)
let reflect_check_failures t p es =
  let delegated, l0_owned =
    match t.mode with
    | Mode.Ooh ->
        List.partition
          (fun e -> Field.is_ooh_delegated (Svt_vmcs.Checks.offending_field e))
          es
    | _ -> ([], es)
  in
  if delegated <> [] then reflect_delegation_fault t p;
  if l0_owned <> [] then reflect_entry_failure t p;
  List.iter (Svt_vmcs.Checks.repair t.vmcs12) es

(* Check vmcs12 and, when [transform], translate it into vmcs02,
   reflecting each failure to L1 and retrying up to [budget] times. *)
let rec checked_entry t p ~transform budget =
  if budget = 0 then
    failwith
      (if transform then
         "Nested: vmcs12 still invalid after repeated entry failures"
       else "Nested: vmcs12 still invalid after repeated delegation faults");
  match
    Svt_vmcs.Checks.run
      ~arch:(Svt_hyp.Machine.arch t.machine)
      ~n_hw_contexts:(Smt_core.n_contexts t.core) t.vmcs12
  with
  | Error es ->
      (* the failure handler resets the offending fields, then retries *)
      reflect_check_failures t p es;
      checked_entry t p ~transform (budget - 1)
  | Ok () when not transform -> ()
  | Ok () -> (
      match transform_entry t p with
      | () -> ()
      | exception Transform.Invalid_pointer (f, _) ->
          reflect_entry_failure t p;
          (* L1 clears the dangling pointer field and retries *)
          Vmcs.write t.vmcs12 f 0L;
          checked_entry t p ~transform (budget - 1))

(* The corrupt-vmcs12 fault site, just before an entry's checks: one
   field of vmcs12 gets a value the checks reject. *)
let corrupt_vmcs12 t =
  if
    Injector.is_active t.injector
    && Injector.roll t.injector Fault_kind.Corrupt_vmcs12
  then begin
    let field, value =
      match Injector.pick t.injector Fault_kind.Corrupt_vmcs12 3 with
      | 0 -> (Field.Vmcs_link_pointer, 0x1001L) (* unaligned link pointer *)
      | 1 -> (Field.Guest_cr0, 0L) (* PE/PG clear: OoH-delegated *)
      | _ -> (Field.Svt_visor, 7L) (* context id out of range *)
    in
    Vmcs.write t.vmcs12 field value
  end

(* A VM entry into L2, guarded: the checks validate vmcs12 before it is
   trusted. Invalid state is not fatal — per §2.1 the entry fails back
   into L1, which repairs its vmcs01' and retries. The corrupt-vmcs12
   fault fires here, just before the checks. The clean path pays only
   the pure (uncharged) checks.

   With [transform] (every mode but OoH's delegated exits) this is ②,
   vmcs12 → vmcs02, and the transform's pointer translation is checked
   too. Without, it is OoH's L1-issued entry: hardware validates the
   delegated fields as it launches L2, with no L0 transform in between,
   and a corrupted *delegated* field surfaces to L1 as a delegation
   fault (repaired locally, no L0), while a corrupted L0-owned field
   still takes the reflected VM-entry-failure path (see
   [reflect_check_failures]). *)
let guarded_entry t p ~transform =
  corrupt_vmcs12 t;
  checked_entry t p ~transform 3

(* Record the trap in vmcs02 as hardware does, then reflect it into vmcs12
   so L1 sees it (②③ of Algorithm 1). *)
let record_and_reflect t p (info : Svt_hyp.Exit.info) =
  Vmcs.record_exit t.vmcs02 ~reason:info.reason
    ~qualification:info.qualification ~instruction_length:2;
  (* hardware also saved the guest state snapshot *)
  Vmcs.write t.vmcs02 Field.Guest_rip
    (Int64.add (Vmcs.peek t.vmcs02 Field.Guest_rip) 2L);
  transform_exit t p;
  Vmcs.write t.vmcs12 Field.Entry_interrupt_info
    (Int64.of_int (Exit_reason.basic_number info.reason))

(* --- baseline path (Algorithm 1 verbatim) ------------------------------ *)

let trap_l2 = world_switch [ ("leg", "l2-l0") ] [ switch_l2 "trap_hw" ]
let enter_l1 = world_switch [ ("leg", "l0-l1") ] to_l1
let leave_l1 = world_switch [ ("leg", "l1-l0") ] from_l1
let resume_l2 = resume [ ("leg", "l0-l2") ] [ switch_l2 "resume_hw" ]

(* ③ onward: load vmcs01, run L1's handler, take its VMRESUME back,
   emulate the entry and resume L2. Split out of [handle_baseline] because
   the SVt→baseline downgrade path joins here after its own prefix. *)
let baseline_completion t p info ~effect =
  pay t p load_vmcs01;
  (* ④ VM resume into L1, ⑤ L1 handles the trap against vmcs01', ④ L1's
     VMRESUME traps into L0 *)
  run_leg t p enter_l1 ignore;
  run_l1_handler t p info ~effect ~aux:aux_trap;
  run_leg t p leave_l1 ignore;
  pay t p emulate_entry;
  (* ② vmcs12 → vmcs02, ① resume L2 *)
  guarded_entry t p ~transform:true;
  run_leg t p resume_l2 ignore

let handle_baseline t p info ~effect =
  (* ① L2 → L0, ③, ② vmcs02 → vmcs12 *)
  run_leg t p trap_l2 ignore;
  pay t p reflect;
  record_and_reflect t p info;
  baseline_completion t p info ~effect

(* --- SW SVt path (§5.2, Figure 5) --------------------------------------- *)

(* Service one host-side event while blocked on the SVt-thread: the
   SVT_BLOCKED protocol of §5.3. L0₀ injects a distinguished trap into
   L1₀ so the interrupt handler can run, then L1₀ yields straight back. *)
let service_blocked_event t p ch event =
  t.blocked_injections <- t.blocked_injections + 1;
  let bd = Vcpu.breakdown t.vcpu in
  (* inject SVT_BLOCKED into L1₀ and take its immediate yield back *)
  Channel.post_retry ch (Channel.to_svt ch) bd Channel.Blocked;
  (* a stuck SVT_BLOCKED leg: the stall fault holds the injection, for
     the fault plan's magnitude, before L1₀ manages to yield back *)
  if
    Injector.is_active t.injector
    && Injector.roll t.injector Fault_kind.Stall_blocked
  then
    Proc.delay (Time.of_ns (Fault_kind.param_ns Fault_kind.Stall_blocked));
  pay t p to_l1;
  event ();
  pay t p from_l1

(* A ring command neither side expects: with faults armed it is what an
   injected fault left behind, counted as [outcome] and dropped; without,
   the protocol is broken. *)
let unexpected t outcome what =
  if Injector.is_active t.injector then Injector.record t.injector outcome
  else failwith what

(* The stall watchdog over one resume wait, armed only when faults can
   occur: if the resume does not arrive by the (virtual-clock) deadline,
   the wait re-posts the command; after the backoff schedule is
   exhausted, it gives the episode up. [expired] says the [deadline] of
   [attempt] has passed, which [expiry] announces. *)
type watchdog = {
  expiry : Simulator.Signal.t;
  expired : bool ref;
  mutable deadline : Svt_engine.Event_queue.handle;
  mutable attempt : int;
}

let schedule_deadline t expiry expired ~attempt =
  expired := false;
  Simulator.schedule (Svt_hyp.Machine.sim t.machine)
    ~after:(Wait.watchdog_timeout ~attempt)
    (fun () ->
      expired := true;
      Simulator.Signal.broadcast expiry)

let arm_watchdog t =
  let expiry = Simulator.Signal.create (Svt_hyp.Machine.sim t.machine) in
  let expired = ref false in
  { expiry; expired; deadline = schedule_deadline t expiry expired ~attempt:0;
    attempt = 0 }

(* Wait for the CMD_VM_RESUME of episode [t.seq], servicing interrupts
   for L1₀ meanwhile: [`Resumed] once it arrives, [`Downgraded] when the
   watchdog [wd] gives up, after re-posting [trap_cmd] twice. With no
   watchdog ([None]: no faults can occur) the wait schedules no event and
   allocates nothing. *)
let rec wait_resume t p ch bd trap_cmd wd =
  match Channel.try_recv ch (Channel.from_svt ch) bd with
  | Some (Channel.Vm_resume { seq }) when seq = t.seq ->
      (match wd with
      | Some w -> Simulator.cancel (Svt_hyp.Machine.sim t.machine) w.deadline
      | None -> ());
      `Resumed
  | Some (Channel.Corrupt _) ->
      unexpected t Fault_outcome.Corrupt_discarded "Nested: corrupt ring entry";
      wait_resume t p ch bd trap_cmd wd
  | Some _ ->
      (* a resume answering an earlier episode, or a command that
         belongs on the other ring *)
      unexpected t Fault_outcome.Stale_ignored
        "Nested: command without a pending episode";
      wait_resume t p ch bd trap_cmd wd
  | None -> (
      match (Vcpu.take_host_event t.vcpu, wd) with
      | Some ev, _ ->
          service_blocked_event t p ch ev;
          wait_resume t p ch bd trap_cmd wd
      | None, Some w when !(w.expired) ->
          if w.attempt >= 2 then `Downgraded
          else begin
            Injector.record t.injector Fault_outcome.Resume_retry;
            Channel.post_retry ch (Channel.to_svt ch) bd trap_cmd;
            w.attempt <- w.attempt + 1;
            w.deadline <-
              schedule_deadline t w.expiry w.expired ~attempt:w.attempt;
            wait_resume t p ch bd trap_cmd wd
          end
      | None, _ ->
          Simulator.Signal.wait_any
            (match wd with
            | None -> t.resume_signals
            | Some w -> t.resume_signals @ [ w.expiry ]);
          if Channel.pending_ring (Channel.from_svt ch) then
            Channel.charge_wake ch bd;
          wait_resume t p ch bd trap_cmd wd)

(* ① and the L2-side half of ③ are unchanged: L2 still exits through the
   pre-existing trap path on this hardware thread; L2 restarts through it
   too. *)
let sw_trap = switch_l2 "trap_hw" :: reflect
let sw_resume = [ l0 "sw_prepare_resume"; l0 "l0_ctx_mgmt_l2.rest" ]

let handle_sw_svt t p ch info ~effect =
  let bd = Vcpu.breakdown t.vcpu in
  pay t p sw_trap;
  record_and_reflect t p info;
  (* CMD_VM_TRAP to the SVt-thread; the channel adds the register
     payload from L2's hardware context *)
  t.seq <- t.seq + 1;
  let trap_cmd =
    Channel.Vm_trap
      { seq = t.seq; reason = info.reason; qual = info.qualification }
  in
  t.pending <- true;
  t.pending_info <- info;
  t.pending_effect <- effect;
  Channel.post_retry ch (Channel.to_svt ch) bd trap_cmd;
  let wd = if Injector.is_active t.injector then Some (arm_watchdog t) else None in
  let start = leg_start t in
  let outcome = wait_resume t p ch bd trap_cmd wd in
  leg_end t Obs_span.Svt_stall [ ("on", "svt-thread") ] start;
  match outcome with
  | `Resumed ->
      pay t p sw_resume;
      guarded_entry t p ~transform:true;
      run_leg t p resume_l2 ignore
  | `Downgraded ->
      (* the SVt-thread is wedged: abandon the round trip and finish this
         (and every later) episode through classic reflection *)
      clear_pending t;
      t.downgraded <- true;
      Injector.record t.injector Fault_outcome.Downgrade;
      baseline_completion t p info ~effect

(* The SVt-thread: pinned to the SMT sibling, parked inside the (L1 guest)
   kernel, serving CMD_VM_TRAP commands (Figure 5's L1₁). *)
let svt_thread_body t ch () =
  let bd = Vcpu.breakdown t.vcpu in
  let answer seq =
    Channel.post_retry ch (Channel.from_svt ch) bd (Channel.Vm_resume { seq })
  in
  let rec loop () =
    let cmd = Channel.recv ch (Channel.to_svt ch) bd in
    (match cmd with
    | Channel.Vm_trap { seq; _ } when t.pending && seq = t.seq ->
        let info = t.pending_info and effect = t.pending_effect in
        clear_pending t;
        run_l1_handler t
          (Cost_model.profile t.cost info.reason)
          info ~effect ~aux:aux_trap;
        t.thread_last_done <- seq;
        answer seq
    | Channel.Vm_trap { seq; _ } when (not t.pending) && seq = t.thread_last_done
      ->
        (* the answer was lost in the ring: the watchdog re-posted the
           command, so answer it again *)
        answer seq
    | Channel.Blocked ->
        (* L1₀ is being interrupted while we handle a trap; nothing for the
           SVt-thread itself to do (§5.3 guarantees no concurrent access
           to the L2₀ vCPU state). *)
        ()
    | Channel.Corrupt _ ->
        unexpected t Fault_outcome.Corrupt_discarded
          "SVt-thread: corrupt ring entry"
    | Channel.Vm_trap _ | Channel.Vm_resume _ ->
        (* a trap left over from an episode the watchdog abandoned, or a
           resume on the wrong ring *)
        unexpected t Fault_outcome.Stale_ignored
          "SVt-thread: command without a pending exit");
    loop ()
  in
  loop ()

(* --- HW SVt path (§4) ---------------------------------------------------- *)

(* ③ the handler reaches L2's registers through ctxtld/ctxtst instead of
   a memory save/restore. §3.1: with fewer hardware contexts than
   virtualization levels, L1 and L2 multiplex one context, and switching
   between their worlds means reloading the shared context's register
   state and re-pointing the VMCS ([reload]) — a software context switch
   again, though a cheaper one than the baseline's. *)
let regs = "ctxt_reg_access*ctxt_regs_per_switch"
let ctxt_regs = Cost.charge Breakdown.Ctxt_access regs
let reload = [ Cost.charge Breakdown.Ctxt_access (regs ^ "+" ^ regs); l0 "vmptrld" ]
let hw_reflect = [ ctxt_regs; l0 "l0_reflect_decision" ]
let vmptrld = [ l0 "vmptrld" ]
let inject = [ l0 "l0_inject_exit_info" ]
let hw_emulate_entry = [ l0 "l0_emulate_vmentry"; ctxt_regs ]
let hw_emulate_entry_mux = reload @ hw_emulate_entry
let hw_l1 = [ switch_l1 "thread_switch" ]
let hw_trap_l2 = leg Obs_span.Svt_trap [ ("leg", "l2-l0") ] [ switch_l2 "thread_switch" ]
let hw_resume_l1 = resume [ ("leg", "l0-l1") ] hw_l1
let hw_resume_l1_mux = leg ~before:reload Obs_span.Svt_resume [ ("leg", "l0-l1") ] hw_l1
let hw_trap_l1 = leg Obs_span.Svt_trap [ ("leg", "l1-l0") ] hw_l1
let hw_resume_l2 = resume [ ("leg", "l0-l2") ] [ switch_l2 "thread_switch" ]

let handle_hw_svt t p info ~effect =
  let mux = t.ctx_l1 = t.ctx_l2 in
  (* ① VM trap = stall L2's context, fetch from SVt_visor's *)
  run_leg t p hw_trap_l2 Smt_core.vm_trap;
  pay t p hw_reflect;
  record_and_reflect t p info;
  pay t p vmptrld;
  Svt_fields.vmptrld t.core t.vmcs01;
  pay t p inject;
  (* ④ resume into L1's hardware context *)
  run_leg t p (if mux then hw_resume_l1_mux else hw_resume_l1) Smt_core.vm_resume;
  (* ⑤ L1 handles; §4 resolves its cross-context accesses to L2's
     registers through SVt_nested, a level resolution not modelled here *)
  run_l1_handler t p info ~effect ~aux:aux_trap;
  (* ④ L1's VMRESUME traps into L0's context; ③ emulate the entry *)
  run_leg t p hw_trap_l1 Smt_core.vm_trap;
  pay t p (if mux then hw_emulate_entry_mux else hw_emulate_entry);
  pay t p vmptrld;
  Svt_fields.vmptrld t.core t.vmcs02;
  (* ② and ① resume L2's context *)
  guarded_entry t p ~transform:true;
  run_leg t p hw_resume_l2 Smt_core.vm_resume

(* --- construction ------------------------------------------------------- *)

(* Wire the nested trap path for one L2 vCPU. [l1_vm] is the guest
   hypervisor's VM (its address space backs the shadow-EPT translation and,
   under SW SVt, the command rings). Hardware contexts follow the paper's
   worked example: L0 on context 0, L1 on 1, L2 on 2 when the core has
   three; on 2-way SMT, L1 and L2 share context 1's slot and L0 re-loads
   it per level (the vCPU state is still exchanged with ctxtld/ctxtst). *)
let create ?injector ~machine ~mode ~vcpu ~l1_vm ~script () =
  let injector =
    match injector with Some i -> i | None -> Injector.none ()
  in
  let cost = Svt_hyp.Machine.cost machine in
  let core = Vcpu.core vcpu in
  let n_ctx = Smt_core.n_contexts core in
  let ctx_l0 = 0 in
  let ctx_l1 = 1 in
  let ctx_l2 = if n_ctx > 2 then 2 else 1 in
  let vmcs01 = Vmcs.create () in
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  Svt_vmcs.Checks.init_minimal vmcs01;
  Svt_vmcs.Checks.init_minimal vmcs12;
  Svt_vmcs.Checks.init_minimal vmcs02;
  let l1_aspace = Svt_hyp.Vm.aspace l1_vm in
  (* L1 points the physical-pointer fields of vmcs01' at pages in its own
     guest-physical space; the entry transform translates them. *)
  let bitmap_page field =
    let gpa = Svt_mem.Address_space.alloc_guest_pages l1_aspace 1 in
    Vmcs.write vmcs12 field (Int64.of_int (Svt_mem.Addr.Gpa.to_int gpa))
  in
  bitmap_page Field.Io_bitmap_a;
  bitmap_page Field.Io_bitmap_b;
  bitmap_page Field.Msr_bitmap;
  bitmap_page Field.Ept_pointer;
  let l0_ept_pointer = 0x7EF0000L in
  (match mode with
  | Mode.Hw_svt ->
      Svt_fields.set_contexts vmcs01 ~visor:ctx_l0 ~vm:ctx_l1 ~nested:ctx_l2;
      (* L1 programmed its own (virtualized) view into vmcs01'; L0
         translated the context ids when shadowing into vmcs12/vmcs02. *)
      Svt_fields.set_contexts vmcs12 ~visor:0 ~vm:1 ~nested:Svt_fields.invalid;
      Svt_fields.set_contexts vmcs02 ~visor:ctx_l0 ~vm:ctx_l2
        ~nested:Svt_fields.invalid;
      Vcpu.set_hw_ctx vcpu ctx_l2;
      Svt_fields.vmptrld core vmcs02;
      Smt_core.vm_resume core (* the guest context is the active one *)
  | Mode.Baseline | Mode.Sw_svt _ | Mode.Hw_full_nesting | Mode.Ooh ->
      Svt_fields.set_contexts vmcs01 ~visor:Svt_fields.invalid
        ~vm:Svt_fields.invalid ~nested:Svt_fields.invalid;
      Vcpu.set_hw_ctx vcpu 0);
  (match
     Svt_vmcs.Checks.run
       ~arch:(Svt_hyp.Machine.arch machine)
       ~n_hw_contexts:n_ctx vmcs02
   with
  | Ok () -> ()
  | Error es ->
      failwith
        (Fmt.str "Nested.create: vmcs02 fails entry checks: %a"
           (Fmt.list Svt_vmcs.Checks.pp_failure) es));
  let channel =
    match mode with
    | Mode.Sw_svt { wait; placement } ->
        Some
          (Channel.create ~vcpu_index:(Vcpu.index vcpu) ~injector ~machine
             ~aspace:l1_aspace ~wait ~placement ~core
             ~ctx:(Vcpu.hw_ctx vcpu) ())
    | _ -> None
  in
  let t =
    {
      machine;
      cost;
      mode;
      vcpu;
      core;
      script;
      vmcs01;
      vmcs12;
      vmcs02;
      l1_ept = Svt_mem.Address_space.ept l1_aspace;
      l0_ept_pointer;
      injector;
      channel;
      resume_signals =
        (match channel with
        | Some ch ->
            [ Channel.ring_signal (Channel.from_svt ch); Vcpu.wake_signal vcpu ]
        | None -> []);
      pending = false;
      pending_info = no_exit;
      pending_effect = ignore;
      seq = 0;
      thread_last_done = 0;
      downgraded = false;
      ctx_l0;
      ctx_l1;
      ctx_l2;
      last_episode_end = Time.of_ns (-1_000_000) (* long before any entry *);
      blocked_injections = 0;
      metrics = machine.Svt_hyp.Machine.metrics;
      exit_counts = Array.make Exit_reason.n_basic_numbers no_cell;
      exit_times = Array.make Exit_reason.n_basic_numbers no_cell;
    }
  in
  (* Prime vmcs02 from the initial vmcs12 state (the first VMLAUNCH). *)
  ignore
    (Transform.entry ~vmcs12 ~vmcs02 ~l1_ept:t.l1_ept
       ~l0_ept_pointer:t.l0_ept_pointer);
  t

(* Spawn the SVt-thread (SW SVt only); call once after [create]. *)
let start t =
  match t.channel with
  | Some ch ->
      Simulator.spawn (Svt_hyp.Machine.sim t.machine)
        ~name:(Printf.sprintf "svt-thread-%s" (Vcpu.name t.vcpu))
        (svt_thread_body t ch)
  | None -> ()

(* --- full hardware nesting (the alternative design point, §3) ------------ *)

(* Under full nesting an aux access is a plain VMCS access on real
   hardware; L1 resumes L2 itself, as for OoH-delegated exits. *)
let hw_access = [ l1 "full_nesting_aux_access" ]
let aux_hw_access t p _ = pay t p hw_access
let resume_from_l1 = resume [ ("leg", "l1-l2") ] [ switch_l1 "resume_hw" ]

(* Architectural support for nested delivery: the hardware walks the VMCS
   hierarchy itself and delivers the L2 trap straight into L1. No L0
   involvement, no transforms — and L1's vmread/vmwrite hit real hardware
   state, so the auxiliary traps vanish too. The price the paper argues
   against is hardware complexity, not performance. *)
let full_nesting_trap = [ switch_l1 "trap_hw"; l1 "ctx_mgmt_single" ]

let handle_full_nesting t p (info : Svt_hyp.Exit.info) ~effect =
  pay t p full_nesting_trap;
  run_l1_handler t p info ~effect ~aux:aux_hw_access;
  run_leg t p resume_from_l1 ignore

(* --- Out-of-Hypervisor delegation (PAPERS.md) --------------------------- *)

(* Under OoH an aux access is a direct access to a delegated VMCS
   field. *)
let delegated_access = [ l1 "ooh_vmcs_access" ]
let aux_delegated_access t p _ = pay t p delegated_access

(* Delegated exits go straight into L1: one hardware dispatch, the L1
   handler running against the delegated VMCS fields (each auxiliary
   access is a direct field access, not a trap), and an L1-issued resume.
   No L0 reflection, no transform, no SVt context machinery. Residual
   exits (interrupts, I/O, timers — see [Svt_arch.Ooh]) still take the
   full baseline reflection, plus L0 re-arming the delegation controls
   before handing the core back. *)
let ooh_trap = world_switch [ ("leg", "l2-l1"); ("via", "ooh") ] [ switch_l1 "trap_hw" ]
let ooh_dispatch = [ l1 "ooh_delegated_dispatch"; l1 "ctx_mgmt_single" ]
let ooh_rearm = [ l0 "ooh_delegation_setup" ]

let handle_ooh t p (info : Svt_hyp.Exit.info) ~effect =
  if Svt_arch.Ooh.delegated info.reason then begin
    run_leg t p ooh_trap ignore;
    pay t p ooh_dispatch;
    run_l1_handler t p info ~effect ~aux:aux_delegated_access;
    guarded_entry t p ~transform:false;
    run_leg t p resume_from_l1 ignore
  end
  else begin
    handle_baseline t p info ~effect;
    pay t p ooh_rearm
  end

(* --- entry points ------------------------------------------------------- *)

(* The per-reason metric cells of [t], looked up by name on a reason's
   first exit only: the counter ["l2_exit." ^ name] and the timer
   ["l2_exit_time." ^ name]. Returns the reason's basic number, which
   indexes both cell arrays. *)
let exit_cells t reason =
  let i = Exit_reason.basic_number reason in
  if t.exit_counts.(i) == no_cell then begin
    let name = Exit_reason.name reason in
    t.exit_counts.(i) <- Svt_stats.Metrics.counter_ref t.metrics ("l2_exit." ^ name);
    t.exit_times.(i) <- Svt_stats.Metrics.timer_ref t.metrics ("l2_exit_time." ^ name)
  end;
  i

(* The reflection episode of [info] under the path's mode: the one
   mode → handler match, shared by exits and interrupts for L1. *)
let dispatch t (info : Svt_hyp.Exit.info) ~effect =
  let p = Cost_model.profile t.cost info.reason in
  match (t.mode, t.channel) with
  | Mode.Sw_svt _, Some ch when not t.downgraded ->
      handle_sw_svt t p ch info ~effect
  | (Mode.Baseline | Mode.Sw_svt _), _ -> handle_baseline t p info ~effect
  | Mode.Hw_svt, _ -> handle_hw_svt t p info ~effect
  | Mode.Hw_full_nesting, _ -> handle_full_nesting t p info ~effect
  | Mode.Ooh, _ -> handle_ooh t p info ~effect

let handle t (info : Svt_hyp.Exit.info) =
  Breakdown.count_exit (Vcpu.breakdown t.vcpu);
  let slot = exit_cells t info.reason in
  incr t.exit_counts.(slot);
  let started = Proc.now () in
  let effect () = Svt_hyp.Semantics.apply t.vcpu info.action in
  if Svt_hyp.L1_script.reflects info.reason then dispatch t info ~effect
  else begin
    (* L0 handles it directly (VMX instructions from L1 &c.) *)
    aux_round_trip t (Cost_model.profile t.cost info.reason) aux_in_l0
      ~guest_ctx:t.ctx_l2;
    effect ()
  end;
  t.last_episode_end <- Proc.now ();
  let timer = t.exit_times.(slot) in
  timer := !timer + Time.to_ns (Time.diff (Proc.now ()) started);
  if tracing t then
    leg_end t Obs_span.Vm_exit
      [ ("reason", Exit_reason.name info.reason); ("mode", Mode.name t.mode) ]
      started

(* An interrupt destined for L1 arriving while this vCPU runs L2: a full
   reflection episode normally, or the SVT_BLOCKED light path when it
   lands in the middle of an SW SVt episode (handled by the wait loop in
   [handle_sw_svt], which drains host events via [service_blocked_event]).
   The [work] closure performs L1's interrupt handler semantics. *)
let interrupt_for_l1 t ~vector ~work =
  let info =
    Svt_hyp.Exit.of_action (Svt_hyp.Exit.External_interrupt { vector })
  in
  let started = Proc.now () in
  dispatch t info ~effect:work;
  t.last_episode_end <- Proc.now ();
  if tracing t then
    leg_end t Obs_span.Vm_exit
      [ ("reason", "external-interrupt-l1");
        ("vector", string_of_int vector);
        ("mode", Mode.name t.mode) ]
      started

(* Whether the vCPU is (virtually) inside/just past a trap episode, so a
   pending vector can be injected on the upcoming VM entry instead of
   forcing a fresh exit (the injection-on-entry fast path). The 1 µs
   window is a modelling rule for when an entry is imminent, not a cost
   anything pays, so it stays here rather than in [Cost_model]. *)
let at_entry_boundary t =
  Time.(Time.diff (Proc.now ()) t.last_episode_end <= Time.of_ns 1_000)

let blocked_injections t = t.blocked_injections
let vmcs12 t = t.vmcs12
