(** SW SVt shared-memory command channels (§5.2, Figure 5).

    Each L2 vCPU gets a pair of unidirectional command rings living in
    (simulated) guest memory: L0 posts [CMD_VM_TRAP] with the trap
    identifier and register payload, and the SVt-thread answers with
    [CMD_VM_RESUME]. Commands are serialized into the ring bytes for
    real, so payloads genuinely travel through shared memory: both
    commands carry the 16 GPRs of the L2 vCPU's hardware context, copied
    from the register file into the entry as it is posted. Nothing in
    the model reads them back, so a received command holds the fields
    below only. Waiting is
    charged per the configured mechanism and placement ({!Wait}), and a
    polling consumer slows its SMT sibling down while it spins.

    The channel is a fault-injection site (drop / duplicate / delay /
    corrupt on send) and degrades gracefully: a full ring surfaces as a
    typed [`Backpressure] result rather than an abort, and unparseable
    entries deserialize to {!command.Corrupt} for the consumer to
    discard. Commands carry a sequence number so consumers can tell
    duplicated or re-posted commands from fresh ones. *)

type command =
  | Vm_trap of { seq : int; reason : Svt_arch.Exit_reason.t; qual : int64 }
      (** L0 → SVt-thread: handle this L2 exit *)
  | Vm_resume of { seq : int }
      (** SVt-thread → L0: handling complete, restart L2 *)
  | Blocked
      (** L0 → L1₀: the SVT_BLOCKED injection notification (§5.3) *)
  | Corrupt of int
      (** an entry whose command code did not parse; carries the raw
          code. Never posted — only produced by deserialization. *)

type ring
type t

val create :
  ?vcpu_index:int ->
  ?injector:Svt_fault.Injector.t ->
  machine:Svt_hyp.Machine.t ->
  aspace:Svt_mem.Address_space.t ->
  wait:Mode.wait_mechanism ->
  placement:Mode.placement ->
  core:Svt_arch.Smt_core.t ->
  ctx:int ->
  unit ->
  t
(** Allocate both rings in [aspace] (the ivshmem-style shared pages of
    §5.2), one guest page each. A ring translates its page through the
    EPT on its first use, for write access, and from then on reads and
    writes the guest's bytes on that host page directly. [core] is the core whose sibling a polling waiter would slow,
    and [ctx] the hardware context of [core] whose GPRs the [Vm_trap]
    and [Vm_resume] entries carry;
    [vcpu_index] tags the ring-send/ring-recv observability spans with
    the L2 vCPU these rings serve (default [-1], untagged). A span sits
    on [core]'s current context, but the SVt-thread's side (receiving
    {!to_svt}, sending {!from_svt}) sits on the context after [ctx]
    under [Smt_sibling] placement, the SMT sibling it runs on. [injector]
    defaults to the inert injector (no faults, zero overhead). *)

val to_svt : t -> ring
(** The L0 → SVt-thread direction. *)

val from_svt : t -> ring
(** The SVt-thread → L0 direction. *)

val post :
  t -> ring -> Svt_hyp.Breakdown.t -> command -> (unit, [ `Backpressure ]) result
(** Serialize, publish, and ding the monitored line. Charges the ring
    write to the breakdown's channel bucket; must run in a process. A
    full ring is [Error `Backpressure] — nothing is published and the
    caller decides whether to back off ({!post_retry}) or drop. *)

val post_retry : t -> ring -> Svt_hyp.Breakdown.t -> command -> unit
(** {!post} with bounded virtual-clock exponential backoff
    ({!Wait.retry_backoff}) on backpressure; each retry is recorded as a
    [Backpressure_retry] fault outcome. Raises only once the backoff
    schedule (8 attempts) is exhausted. *)

val pending_ring : ring -> bool

val try_recv : t -> ring -> Svt_hyp.Breakdown.t -> command option
(** Consume the next command without waiting (charges the ring read). *)

val recv : t -> ring -> Svt_hyp.Breakdown.t -> command
(** Blocking receive with the full waiting-mechanism model: wait on the
    ring's signal until a command is present, paying the wait
    mechanism's wake-up penalty per wake. *)

val charge_wake : t -> Svt_hyp.Breakdown.t -> unit
(** Pay the wake-up penalty of the configured wait mechanism. *)

val ring_signal : ring -> Svt_engine.Simulator.Signal.t
(** The "monitored cache line": broadcast on every {!post}. *)
