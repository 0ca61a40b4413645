(* Micro-benchmarks (paper §2.3 and §6.1): a loop containing the operation
   under scrutiny, repeated until the paper's convergence criterion holds
   (stddev and overhead below 1% of mean at 2σ, outliers removed at
   4σ). *)

module Time = Svt_engine.Time
module Proc = Svt_engine.Simulator.Proc
module Convergence = Svt_stats.Convergence
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Breakdown = Svt_hyp.Breakdown

type result = {
  per_op_us : float;
  stats : Convergence.result;
  exits : int;
  breakdown : (string * Time.t * float) list; (* per-episode bucket rows *)
}

(* Operations run before measuring, to populate shadow structures and
   software caches. *)
let warmup = 32

(* Measure one guest operation under the convergence policy. *)
let measure sys ~op =
  let vcpu = System.vcpu0 sys in
  let bd = Vcpu.breakdown vcpu in
  let outcome = ref None in
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to warmup do
        op v
      done;
      Breakdown.reset bd;
      outcome :=
        Some
          (Convergence.run (fun () ->
               let t0 = Proc.now () in
               op v;
               Time.to_us_f (Time.diff (Proc.now ()) t0))));
  System.run sys;
  let stats = Option.get !outcome in
  let episodes = max 1 (Breakdown.exits bd) in
  (* Per-operation episode count: interrupt-free micro-benchmarks take a
     fixed number of exits per op, so normalizing by samples is exact. *)
  let per_ep ns = Time.of_ns (Time.to_ns ns / stats.Convergence.samples_used) in
  let breakdown =
    List.map
      (fun (name, total, pct) -> (name, per_ep total, pct))
      (Breakdown.rows bd)
  in
  { per_op_us = stats.Convergence.mean; stats; exits = episodes; breakdown }

(* The canonical instance: a cpuid in the guest under test. *)
let cpuid_op v = ignore (Guest.cpuid v ~leaf:1)

let measure_cpuid sys = measure sys ~op:cpuid_op

(* Figure 6: cpuid latency at every level and mode. *)
type fig6_row = { label : string; time_us : float; overhead_vs_l0 : float }

let fig6 ?arch () =
  (* HW SVt's design point does not exist on a backend without a shadow
     VMCS (ARM NV/VHE): drop it from the bar set rather than asking the
     caller to know the capability table. *)
  let kind =
    match arch with Some k -> k | None -> Svt_arch.Backend.default
  in
  let modes =
    List.filter
      (function
        | Svt_core.Mode.Hw_svt -> Svt_arch.Backend.has_hw_svt kind
        | _ -> true)
      Svt_core.Mode.
        [ sw_svt_default; Hw_svt; Ooh; Hw_full_nesting ]
  in
  let run ~mode ~level label =
    let sys = System.of_config (System.Config.make ?arch ~mode ~level ()) in
    let r = measure_cpuid sys in
    (label, r)
  in
  let l0 = run ~mode:Svt_core.Mode.Baseline ~level:System.L0_native "L0" in
  let l1 = run ~mode:Svt_core.Mode.Baseline ~level:System.L1_leaf "L1" in
  let l2 = run ~mode:Svt_core.Mode.Baseline ~level:System.L2_nested "L2" in
  let svt_rows =
    List.map
      (fun mode ->
        run ~mode ~level:System.L2_nested
          (match mode with
          | Svt_core.Mode.Sw_svt _ -> "SW SVt"
          | Svt_core.Mode.Hw_svt -> "HW SVt"
          | Svt_core.Mode.Hw_full_nesting -> "HW full nesting"
          | Svt_core.Mode.Ooh -> "OoH"
          | Svt_core.Mode.Baseline -> "baseline"))
      modes
  in
  let l0_us = (snd l0).per_op_us in
  List.map
    (fun (label, r) ->
      { label; time_us = r.per_op_us; overhead_vs_l0 = r.per_op_us /. l0_us })
    ([ l0; l1; l2 ] @ svt_rows)

(* --- per-exit latency table (the §6.3-style profile, per backend) ------- *)

(* Guest operations that deterministically drive one exit reason per
   iteration and are repeatable inside the measurement loop (page faults
   and MMIO touch per-address state, so they stay out). *)
let wrmsr_op v = Guest.wrmsr v Svt_arch.Msr.Ia32_star 0x1234L
let io_write_op v = Guest.io_write v ~port:0x80 0
let vmcall_op v = ignore (Guest.vmcall v ~nr:0 ~arg:0L)

let exit_ops =
  [
    (Svt_arch.Exit_reason.Cpuid, cpuid_op);
    (Svt_arch.Exit_reason.Msr_write, wrmsr_op);
    (Svt_arch.Exit_reason.Io_instruction, io_write_op);
    (Svt_arch.Exit_reason.Vmcall, vmcall_op);
  ]

type exit_row = {
  exit_label : string; (* the backend's own spelling of the exit *)
  baseline_us : float;
  svt_us : float;
  speedup : float;
}

(* For each driveable exit reason: its nested (L2) latency under the
   baseline and under this backend's SVt flavour, labelled with the
   backend's own exit spelling. This is the table the ARM claim rests
   on — baseline nested exits are uniformly costlier there, and the
   SVt-relative speedup uniformly larger. *)
let per_exit_table ?arch () =
  let kind =
    match arch with Some k -> k | None -> Svt_arch.Backend.default
  in
  let one ~mode op =
    let sys =
      System.of_config
        (System.Config.make ?arch ~mode ~level:System.L2_nested ())
    in
    (measure sys ~op).per_op_us
  in
  List.map
    (fun (reason, op) ->
      let baseline_us = one ~mode:Svt_core.Mode.Baseline op in
      let svt_us = one ~mode:Svt_core.Mode.sw_svt_default op in
      {
        exit_label = Svt_arch.Backend.exit_name kind reason;
        baseline_us;
        svt_us;
        speedup = baseline_us /. svt_us;
      })
    exit_ops
