(** The fuzzing harness and campaign loop.

    {!exec} runs one input through a full nested stack under every run
    mode (baseline, SW SVt, HW SVt), merging coverage and folding the
    guest's semantic observations — cpuid/rdmsr/read/vmcall values,
    never timing — into a fingerprint. An input's whole execution is a
    pure function of (master seed, input bytes), which is what makes
    [--jobs N] and resumed campaigns byte-identical, replay a meaningful
    gate, and shrinking deterministic. *)

(** An invariant violation the harness can detect. *)
type violation =
  | Crash of { mode : string; message : string }
      (** an exception escaped the stack (entry-check give-up, protocol
          assertion, ...) *)
  | Exhausted of { mode : string }  (** the per-mode event budget ran out *)
  | Deadlock of { mode : string }
      (** the event queue drained with the guest program unfinished *)
  | Mode_divergence of { a : string; b : string }
      (** a fault-free input observed different values under two modes *)
  | Replay_divergence
      (** re-executing the same input gave a different fingerprint or
          coverage map *)

val same_class : violation -> violation -> bool
val violation_to_string : violation -> string

val modes : (Svt_arch.Backend.kind * Svt_core.Mode.t) list
(** The (arch, mode) points every input runs under: all four modes on
    x86 plus baseline / SW SVt / OoH on ARM NV/VHE (ARM has no HW SVt
    point — no shadow VMCS for its per-level contexts to extend). The
    semantic fingerprint must agree across the whole matrix. *)

val point_label : Svt_arch.Backend.kind * Svt_core.Mode.t -> string
(** Label used in violations and ledger rows: x86 points keep their
    historical bare mode names; ARM points are ["arm:"]-prefixed. *)

val default_budget : int
(** Per-mode simulator event budget (fuel). *)

type exec_result = {
  fingerprint : int64;
      (** semantic observations only (cpuid/rdmsr/read/vmcall values,
          serviced kicks) folded across all modes — never timing *)
  coverage : Svt_obs.Coverage.t;  (** merged across modes *)
  events : int;  (** simulator events processed, summed across modes *)
  violation : violation option;
}

val exec : ?budget:int -> master:int64 -> Input.t -> exec_result

(** {2 Campaign} *)

val round_size : int
(** Inputs per journal round (8). Fixed and independent of [jobs]:
    generation is sequential at the round barrier, execution fans out,
    results fold back in index order — so worker count can change
    scheduling but never the ledger. *)

type stats = {
  execs : int;
  kept : int;
  violations : int;
  cov_bits : int;
  events : int;
  rounds : int;
  interrupted : bool;  (** [max_rounds] stopped the run before [batch] *)
}

val campaign :
  ?gen_cfg:Gen.cfg ->
  ?budget:int ->
  ?jobs:int ->
  ?ledger:string ->
  ?resume:bool ->
  ?max_rounds:int ->
  ?log:(string -> unit) ->
  seed:int64 ->
  batch:int ->
  unit ->
  stats
(** Run a coverage-guided campaign of [batch] inputs. With [ledger],
    every round appends its kept/violation rows plus a progress barrier
    to the journal; [resume] salvages a torn journal down to its last
    complete round ({!Svt_campaign.Ledger.recover} + atomic rewrite),
    rebuilds the corpus and global map from the kept rows without
    re-executing anything, and continues — producing a final ledger
    byte-identical to an uninterrupted run. Violating inputs are shrunk
    in-line (deterministically) before their row is written. *)
