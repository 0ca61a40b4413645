(* The fuzzing harness: execute one input through a full System under
   every run mode, fingerprint what the guest observed, detect
   violations, and drive the coverage-guided campaign loop.

   Determinism is the load-bearing property. An input's whole execution
   is a pure function of (master seed, input bytes): the machine and
   fault seeds derive from a hash of both, the simulator is
   deterministic, and the campaign generates inputs sequentially from
   per-index split streams before fanning execution out over the worker
   pool — so `--jobs 2` and a resumed run must produce byte-identical
   ledgers, and any difference is itself a bug (which is exactly what
   the replay check looks for). *)

module Prng = Svt_engine.Prng
module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module System = Svt_core.System
module Mode = Svt_core.Mode
module Nested = Svt_core.Nested
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Machine = Svt_hyp.Machine
module Vmcs = Svt_vmcs.Vmcs
module Coverage = Svt_obs.Coverage
module Gpa = Svt_mem.Addr.Gpa
module Ledger = Svt_campaign.Ledger
module Pool = Svt_campaign.Pool

(* --- violations ---------------------------------------------------------- *)

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

(* The shrink oracle compares violations by class: same failure kind in
   the same mode, payload (message text) free to vary as the input
   shrinks. *)
let violation_class = function
  | Crash { mode; _ } -> "crash:" ^ mode
  | Exhausted { mode } -> "exhausted:" ^ mode
  | Deadlock { mode } -> "deadlock:" ^ mode
  | Mode_divergence _ -> "mode-divergence"
  | Replay_divergence -> "replay-divergence"

let same_class a b = violation_class a = violation_class b

let violation_to_string = function
  | Crash { mode; message } -> Printf.sprintf "crash:%s: %s" mode message
  | Exhausted { mode } -> "exhausted:" ^ mode
  | Deadlock { mode } -> "deadlock:" ^ mode
  | Mode_divergence { a; b } -> Printf.sprintf "mode-divergence: %s vs %s" a b
  | Replay_divergence -> "replay-divergence"

(* --- single-input execution ---------------------------------------------- *)

(* The differential matrix: every input runs on every (arch, mode) point
   and the semantic fingerprints must agree across ALL of them — the
   guest-visible contract is ISA-independent (fingerprints fold values,
   never timing), so an x86-vs-ARM mismatch is as much a bug as a
   baseline-vs-SVt one. ARM has no HW SVt point (no shadow VMCS for its
   per-level contexts to extend), so that cell does not exist. *)
module Backend = Svt_arch.Backend

let modes =
  [
    (Backend.X86, Mode.Baseline);
    (Backend.X86, Mode.sw_svt_default);
    (Backend.X86, Mode.Hw_svt);
    (Backend.X86, Mode.Ooh);
    (Backend.Arm, Mode.Baseline);
    (Backend.Arm, Mode.sw_svt_default);
    (Backend.Arm, Mode.Ooh);
  ]

(* x86 labels keep their historical spellings (violation classes and
   ledger rows predate the arch axis); ARM points are "arm:"-prefixed. *)
let point_label (arch, mode) =
  if Backend.equal arch Backend.X86 then Mode.name mode
  else Backend.to_string arch ^ ":" ^ Mode.name mode

let default_budget = 300_000

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let mix h v = Int64.mul (Int64.logxor h v) fnv_prime

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c -> h := mix !h (Int64.of_int (Char.code c)))
    s;
  !h

(* The exec seed is a pure function of (master, input bytes): replay,
   resume and every worker domain all reconstruct the same machine. *)
let input_seed ~master input =
  fnv_string (mix fnv_offset master) (Input.to_string input)

type exec_result = {
  fingerprint : int64;
      (** semantic observations only (cpuid/rdmsr/read/vmcall values,
          serviced kicks) folded across all modes — never timing *)
  coverage : Coverage.t;  (** merged across modes *)
  events : int;  (** simulator events processed, summed across modes *)
  violation : violation option;
}

let run_op vcpu fp served = function
  | Input.Compute_us n -> Guest.compute_us vcpu (float_of_int n)
  | Input.Increments n -> Guest.dependent_increments vcpu n
  | Input.Cpuid leaf ->
      let r = Guest.cpuid vcpu ~leaf in
      fp := mix !fp r.Svt_arch.Cpuid_db.eax;
      fp := mix !fp r.Svt_arch.Cpuid_db.ebx;
      fp := mix !fp r.Svt_arch.Cpuid_db.ecx;
      fp := mix !fp r.Svt_arch.Cpuid_db.edx
  | Input.Wrmsr (i, v) -> Guest.wrmsr vcpu Input.msrs.(i) v
  | Input.Rdmsr i -> fp := mix !fp (Guest.rdmsr vcpu Input.msrs.(i))
  | Input.Io_write (port, v) -> Guest.io_write vcpu ~port v
  | Input.Io_read port -> fp := mix !fp (Guest.io_read vcpu ~port)
  | Input.Mmio_write (a, v) -> Guest.mmio_write32 vcpu (Gpa.of_int a) v
  | Input.Mmio_read a -> fp := mix !fp (Guest.mmio_read32 vcpu (Gpa.of_int a))
  | Input.Page_fault a -> Guest.page_fault vcpu (Gpa.of_int a)
  | Input.Vmcall (nr, arg) -> (
      match Guest.vmcall vcpu ~nr ~arg with
      | None -> fp := mix !fp 0x5AL
      | Some r -> fp := mix !fp r)
  | Input.Sleep_us n ->
      Guest.arm_timer vcpu ~after:(Time.of_us n);
      Guest.hlt vcpu
  | Input.Hlt -> Guest.hlt vcpu
  | Input.Kick vector ->
      (* the 1 µs compute gives the host event an interruptible point to
         land on inside this program *)
      Vcpu.enqueue_host_event vcpu ~vector (fun () -> incr served);
      Guest.compute_us vcpu 1.0

let run_mode ~budget ~machine_seed ~fault_seed ~arch ~mode (input : Input.t) =
  let machine = { Machine.paper_config with Machine.seed = machine_seed } in
  let sys =
    System.of_config
      (System.Config.make ~arch ~machine ~faults:input.Input.plan ~fault_seed
         ~max_sim_events:budget ~mode ~level:System.L2_nested ())
  in
  let cov = Coverage.create () in
  Coverage.attach cov (System.probe sys);
  let vmcs12 = Nested.vmcs12 (System.nested_path sys 0) in
  List.iter (fun (i, v) -> Vmcs.write vmcs12 Input.fields.(i) v) input.Input.pokes;
  (* unsalted: two modes executing the same program must produce the
     same observation stream, so equal fps across modes is the
     correctness criterion *)
  let fp = ref fnv_offset in
  let served = ref 0 in
  let completed = ref false in
  Vcpu.spawn_program (System.vcpu0 sys) (fun vcpu ->
      List.iter (run_op vcpu fp served) input.Input.ops;
      fp := mix !fp (Int64.of_int !served);
      completed := true);
  let fate =
    (* The simulator has no deadlock detector: a hung program just stops
       scheduling events and [run] returns with the queue drained — so
       "finished without completing" IS the deadlock signal. *)
    match System.run sys with
    | () -> if !completed then `Ok else `Deadlock
    | exception Simulator.Budget_exhausted _ -> `Exhausted
    | exception exn -> `Crash (Printexc.to_string exn)
  in
  (!fp, cov, Simulator.events_processed (System.sim sys), fate)

let exec ?(budget = default_budget) ~master (input : Input.t) =
  let rng = Prng.of_seed (input_seed ~master input) in
  let machine_seed = Prng.int rng (1 lsl 30) in
  let fault_seed = Prng.next_int64 rng in
  let coverage = Coverage.create () in
  let events = ref 0 in
  let fingerprint = ref fnv_offset in
  let fps = ref [] in
  let violation = ref None in
  List.iter
    (fun ((arch, mode) as point) ->
      let label = point_label point in
      let fp, cov, evs, fate =
        run_mode ~budget ~machine_seed ~fault_seed ~arch ~mode input
      in
      ignore (Coverage.merge_into ~into:coverage cov : int);
      events := !events + evs;
      fingerprint := mix !fingerprint fp;
      (match fate with
      | `Ok -> fps := (label, fp) :: !fps
      | `Deadlock ->
          if !violation = None then violation := Some (Deadlock { mode = label })
      | `Exhausted ->
          if !violation = None then
            violation := Some (Exhausted { mode = label })
      | `Crash message ->
          if !violation = None then
            violation := Some (Crash { mode = label; message })))
    modes;
  (* Mode-vs-mode divergence is only meaningful fault-free: an active
     plan legitimately perturbs what each mode observes (a dropped ring
     command exists in SW SVt only). The guest-visible semantics must
     be identical across modes (Mode's contract), so any fingerprint
     mismatch on a clean run is a real protocol bug. *)
  (if !violation = None && Svt_fault.Plan.is_empty input.Input.plan then
     match List.rev !fps with
     | (m0, fp0) :: rest -> (
         match List.find_opt (fun (_, fp) -> fp <> fp0) rest with
         | Some (m1, _) -> violation := Some (Mode_divergence { a = m0; b = m1 })
         | None -> ())
     | [] -> ());
  {
    fingerprint = !fingerprint;
    coverage;
    events = !events;
    violation = !violation;
  }

(* --- campaign ------------------------------------------------------------ *)

(* Fixed round size, independent of [jobs]: inputs are generated
   sequentially from the corpus snapshot at the round barrier, executed
   in parallel, and folded back in index order — so worker count can
   change scheduling but never results. Rows hit the journal once per
   round, progress row last: a crash costs at most one round of work
   and resume re-runs it identically. *)
let round_size = 8

type stats = {
  execs : int;
  kept : int;
  violations : int;
  cov_bits : int;
  events : int;
  rounds : int;
  interrupted : bool;  (** [max_rounds] stopped the run before [batch] *)
}

type state = {
  corpus : Corpus.t;
  global : Coverage.t;
  mutable execs : int;
  mutable kept : int;
  mutable violations : int;
  mutable events : int;
}

(* Input [idx] is a pure function of (seed, idx, corpus-at-round-start):
   a keyed split stream per index, spent on either fresh generation or
   the mutation of a drawn corpus parent. *)
let gen_input ~gen_cfg ~seed st idx =
  let rng = Prng.of_split seed ~index:idx in
  if Corpus.size st.corpus > 0 && Prng.bernoulli rng 0.5 then
    match Corpus.pick st.corpus rng with
    | Some parent -> Gen.mutate ~cfg:gen_cfg rng parent
    | None -> Gen.gen ~cfg:gen_cfg rng
  else Gen.gen ~cfg:gen_cfg rng

(* Salvage a torn journal down to its last complete round and rebuild
   the in-memory state from the kept rows. Kept rows persist their own
   coverage maps, so nothing is re-executed. *)
let restore st path =
  let rcv = Ledger.recover path in
  let entries = rcv.Ledger.entries in
  let last_progress = ref (-1) in
  List.iteri
    (fun i e ->
      match Corpus.classify e with
      | Ok (Some (Corpus.Progress _)) -> last_progress := i
      | _ -> ())
    entries;
  let prefix = List.filteri (fun i _ -> i <= !last_progress) entries in
  Ledger.rewrite path prefix;
  List.iter
    (fun e ->
      match Corpus.classify e with
      | Ok (Some (Corpus.Kept { input; cov; _ })) ->
          ignore (Coverage.merge_into ~into:st.global cov : int);
          Corpus.add st.corpus input
      | Ok
          (Some
             (Corpus.Progress
                { next_index = _; execs; kept; violations; events })) ->
          st.execs <- execs;
          st.kept <- kept;
          st.violations <- violations;
          st.events <- events
      | _ -> ())
    prefix

let harness_failure message =
  {
    fingerprint = 0L;
    coverage = Coverage.create ();
    events = 0;
    violation = Some (Crash { mode = "harness"; message });
  }

let campaign ?(gen_cfg = Gen.default) ?(budget = default_budget) ?(jobs = 1)
    ?ledger ?(resume = false) ?max_rounds
    ?(log = fun _ -> ()) ~seed ~batch () =
  let st =
    {
      corpus = Corpus.create ();
      global = Coverage.create ();
      execs = 0;
      kept = 0;
      violations = 0;
      events = 0;
    }
  in
  let journal =
    Option.map
      (fun path ->
        if resume && Sys.file_exists path then restore st path
        else Ledger.rewrite path [];
        Ledger.writer ~crc:true path)
      ledger
  in
  let rounds = ref 0 in
  let interrupted = ref false in
  while st.execs < batch && not !interrupted do
    if match max_rounds with Some m -> !rounds >= m | None -> false then
      interrupted := true
    else begin
      let r = min round_size (batch - st.execs) in
      let base = st.execs in
      let inputs = Array.init r (fun j -> gen_input ~gen_cfg ~seed st (base + j)) in
      let run =
        Pool.map ~jobs (fun input -> exec ~budget ~master:seed input) inputs
      in
      let rows = ref [] in
      Array.iteri
        (fun j outcome ->
          let index = base + j in
          let input = inputs.(j) in
          let res =
            match outcome with
            | Some { Pool.result = Ok res; _ } -> res
            | Some { Pool.result = Error exn; _ } ->
                harness_failure (Printexc.to_string exn)
            | None -> harness_failure "not executed"
          in
          st.events <- st.events + res.events;
          match res.violation with
          | Some v ->
              st.violations <- st.violations + 1;
              let shrunk =
                match v with
                | Replay_divergence -> input
                | _ ->
                    let oracle cand =
                      match (exec ~budget ~master:seed cand).violation with
                      | Some v' -> same_class v v'
                      | None -> false
                    in
                    Shrink.minimize ~oracle input
              in
              rows :=
                Corpus.violation_entry ~index
                  ~violation:(violation_to_string v) ~input ~shrunk
                :: !rows
          | None ->
              if Coverage.adds_coverage ~global:st.global res.coverage then begin
                (* replay gate: a kept input must reproduce itself
                   exactly before it may steer future generations *)
                let again = exec ~budget ~master:seed input in
                if
                  again.fingerprint <> res.fingerprint
                  || not (Coverage.equal again.coverage res.coverage)
                then begin
                  st.violations <- st.violations + 1;
                  rows :=
                    Corpus.violation_entry ~index
                      ~violation:(violation_to_string Replay_divergence)
                      ~input ~shrunk:input
                    :: !rows
                end
                else begin
                  let added = Coverage.merge_into ~into:st.global res.coverage in
                  Corpus.add st.corpus input;
                  st.kept <- st.kept + 1;
                  rows :=
                    Corpus.kept_entry ~index ~bits_added:added
                      ~events:res.events ~cov:res.coverage input
                    :: !rows
                end
              end)
        run.Pool.outcomes;
      st.execs <- st.execs + r;
      rows :=
        Corpus.progress_entry ~next_index:st.execs ~execs:st.execs
          ~kept:st.kept ~violations:st.violations
          ~cov_bits:(Coverage.bits st.global) ~events:st.events
        :: !rows;
      Option.iter (fun j -> List.iter (Ledger.append j) (List.rev !rows)) journal;
      incr rounds;
      log
        (Printf.sprintf "round %d: execs=%d kept=%d cov=%d violations=%d"
           !rounds st.execs st.kept (Coverage.bits st.global) st.violations)
    end
  done;
  Option.iter Ledger.close journal;
  {
    execs = st.execs;
    kept = st.kept;
    violations = st.violations;
    cov_bits = Coverage.bits st.global;
    events = st.events;
    rounds = !rounds;
    interrupted = !interrupted;
  }
