(* The multi-tenant host: gang-schedules many full nested-virtualization
   stacks (one System per tenant, each with its own simulator and local
   clock) over the host's cores x SMT hardware threads, on a host
   virtual clock advanced in fixed quanta. Thread ids are core-major:
   tid = core * smt_per_core + ctx.

   Determinism. The host never consults wall time or ambient randomness:
   tenants are visited in rotating admission order, placement is a
   greedy first-free scan, and every charge is integer nanoseconds.
   The same host shape + tenant specs + horizon therefore produce
   byte-identical reports regardless of process scheduling — which is
   what lets the campaign layer shard consolidation points across worker
   domains.

   Virtual-time ledger. Each tenant carries a monotone local-time
   [target] — the entitlement its stack may simulate up to. Per round:

   - a tenant whose next event lies beyond its target is asleep: the
     quantum accrues to [target] for free (idling needs no hardware);
   - a runnable tenant that wins a gang grab runs
     [System.run_slice ~until:target'] where [target'] advances by the
     quantum scaled down by SMT co-residency (the busy siblings on its
     granted threads' cores) and by any outstanding penalty debt;
   - a runnable tenant that loses the grab is stolen from: target
     frozen, steal time charged.

   Penalty debt models SVt-thread provisioning costs that the
   single-stack latency model (deliberately) does not see: a donated
   sibling pays a wake latency per trap episode; a shared pool queues
   service demand beyond K threads x quantum. Debt shrinks the next
   grant instead of inflating per-exit latency, so per-exit costs stay
   exactly the paper's figures while aggregate throughput bears the
   provisioning trade-off. *)

module Time = Svt_engine.Time
module Prng = Svt_engine.Prng
module Mode = Svt_core.Mode
module System = Svt_core.System
module Machine = Svt_hyp.Machine
module Vcpu = Svt_hyp.Vcpu
module Breakdown = Svt_hyp.Breakdown
module Open_loop = Svt_workloads.Open_loop

type tenant_spec = {
  name : string;
  arch : Svt_arch.Backend.kind;
  mode : Mode.t;
  policy : Policy.t;
  n_vcpus : int;
  seed : int;
}

let tenant_spec ?(name = "") ?(arch = Svt_arch.Backend.X86)
    ?(policy = Policy.default) ?(n_vcpus = 1) ?(seed = 0) mode =
  { name; arch; mode; policy; n_vcpus; seed }

type tenant = {
  spec : tenant_spec;
  sys : System.t;
  claim : Policy.claim;
  wake_cost : Time.t;
  counters : Open_loop.counters;
  mutable target : Time.t; (* local-time entitlement high-water mark *)
  mutable debt : Time.t; (* penalty shrinking the next grants *)
  mutable granted : Time.t; (* entitlement actually received *)
  mutable steal : Time.t; (* runnable but not placed *)
  mutable slept : Time.t; (* quanta slept through *)
  mutable finished : bool;
  mutable last_episodes : int;
  mutable last_svc : Time.t; (* cumulative SVt-thread service demand *)
  mutable wake_penalty : Time.t;
  mutable queue_penalty : Time.t;
}

type t = {
  n_cores : int;
  smt : int; (* hardware threads per core *)
  quantum : Time.t;
  mutable clock : Time.t; (* host virtual now *)
  mutable tenants : tenant list; (* admission order *)
  mutable admitted : int; (* monotone admission counter, never decremented *)
  mutable throttle : float; (* grant scale in (0, 1]: degraded host < 1 *)
  mutable rounds : int;
  mutable cursor : int; (* rotating grant start, for fairness *)
  mutable busy_thread_quanta : int;
  mutable pool_busy : Time.t;
  mutable pool_capacity : Time.t;
}

let create ?(quantum = Time.of_us 50) ~cores ~smt_per_core () =
  if cores < 1 || smt_per_core < 1 then
    invalid_arg "Host.create: cores and smt_per_core must be >= 1";
  if Time.(quantum <= Time.zero) then
    invalid_arg "Host.create: quantum must be positive";
  {
    n_cores = cores;
    smt = smt_per_core;
    quantum;
    clock = Time.zero;
    tenants = [];
    admitted = 0;
    throttle = 1.0;
    rounds = 0;
    cursor = 0;
    busy_thread_quanta = 0;
    pool_busy = Time.zero;
    pool_capacity = Time.zero;
  }

let now t = t.clock
let rounds t = t.rounds

(* Quantum inflation: a degraded host's quanta buy less tenant progress.
   [factor] multiplies every granted slice, so 0.25 means tenants
   simulate a quarter of the usual entitlement per round while the host
   clock ticks at full speed. Sleeping tenants still accrue full quanta
   (idling needs no hardware, degraded or not). *)
let set_throttle t factor =
  if (not (Float.is_finite factor)) || factor <= 0.0 || factor > 1.0 then
    invalid_arg "Host.set_throttle: factor must be in (0, 1]";
  t.throttle <- factor

(* ---- admission ---- *)

(* Host-level feasibility, in System.Config's error vocabulary: the gang
   (plus the policy's global pool) must ever fit the host, and a
   reserved sibling needs a sibling to reserve. *)
let host_errors t spec claim =
  let errs = ref [] in
  if spec.n_vcpus < 1 then
    errs := System.Config.Invalid_vcpus spec.n_vcpus :: !errs;
  (match (spec.mode, spec.policy) with
  | Mode.Sw_svt _, Policy.Dedicated_sibling when t.smt < 2 ->
      errs :=
        System.Config.Dedicated_sibling_needs_smt { smt_per_core = t.smt }
        :: !errs
  | _ -> ());
  let required =
    Policy.host_threads ~smt_per_core:t.smt ~n_vcpus:spec.n_vcpus claim
  in
  let available = t.n_cores * t.smt in
  if spec.n_vcpus > t.n_cores || required > available then
    errs :=
      System.Config.Insufficient_cores
        {
          n_vcpus = spec.n_vcpus;
          cores = t.n_cores;
          required_threads = required;
          available_threads = available;
        }
      :: !errs;
  List.rev !errs

(* Each tenant gets a private simulated machine shaped like its slice of
   the host: one core per vCPU at the host's SMT width. SW SVt stacks
   keep an internal sibling context even on a 1-thread-per-core host
   (their trap-path latency model assumes it — the host-level policy,
   not the stack, decides what that sibling costs); the machine seed is
   derived from the tenant seed and admission index so streams are
   independent and content-stable. *)
let build_system t spec =
  let rng =
    Prng.create
      (0x5c4ed lxor (spec.seed * 0x9E3779B9) lxor (t.admitted * 7919))
  in
  let internal_smt =
    match spec.mode with
    | Mode.Baseline | Mode.Hw_full_nesting | Mode.Ooh -> t.smt
    | Mode.Sw_svt _ | Mode.Hw_svt -> max 2 t.smt
  in
  let machine =
    {
      Machine.paper_config with
      Machine.sockets = 1;
      cores_per_socket = max 1 spec.n_vcpus;
      smt_per_core = internal_smt;
      seed = Prng.int rng (1 lsl 30);
    }
  in
  let cfg =
    (* The stack's internal arrangement is always the paper's dedicated
       sibling (its SVt-threads live on its own machine's siblings and
       its latency model assumes them); what the HOST policy changes —
       pool capacity, donation wakes — is charged by the round loop.
       Host-level feasibility of spec.policy is checked in
       [host_errors], against the host's cores and threads. *)
    System.Config.make ~arch:spec.arch ~machine ~n_vcpus:spec.n_vcpus
      ~mode:spec.mode ~level:System.L2_nested ()
  in
  match System.Config.validate cfg with
  | Error errs -> Error errs
  | Ok cfg ->
      let sys = System.of_config cfg in
      let counters = Open_loop.counters () in
      for i = 0 to spec.n_vcpus - 1 do
        Open_loop.spawn counters (System.vcpu sys i)
      done;
      Ok (sys, counters)

let add_tenant t spec =
  let claim = Policy.claim ~mode:spec.mode spec.policy in
  match host_errors t spec claim with
  | _ :: _ as errs -> Error errs
  | [] -> (
      match build_system t spec with
      | Error errs -> Error errs
      | Ok (sys, counters) ->
          let name =
            if spec.name = "" then Printf.sprintf "t%d" t.admitted
            else spec.name
          in
          let tn =
            {
              spec = { spec with name };
              sys;
              claim;
              wake_cost =
                (if claim.Policy.donation then
                   Policy.donation_wake_cost (System.cost sys) spec.mode
                 else Time.zero);
              counters;
              target = Time.zero;
              debt = Time.zero;
              granted = Time.zero;
              steal = Time.zero;
              slept = Time.zero;
              finished = false;
              last_episodes = 0;
              last_svc = Time.zero;
              wake_penalty = Time.zero;
              queue_penalty = Time.zero;
            }
          in
          t.tenants <- t.tenants @ [ tn ];
          t.admitted <- t.admitted + 1;
          Ok ())

(* ---- the round loop ---- *)

let each_vcpu tn f =
  for i = 0 to tn.spec.n_vcpus - 1 do
    f (System.vcpu tn.sys i)
  done

(* Greedy first-free gang grab. Whole-core claimers take fully-free
   cores (vCPU on context 0, siblings reserved idle); thread claimers
   take free threads core-major, packing siblings together. All-or-
   nothing: a gang that does not fit leaves the free map untouched. *)
let try_place t free tn =
  let smt = t.smt and n_cores = t.n_cores in
  let need = tn.spec.n_vcpus in
  if tn.claim.Policy.whole_core then begin
    let picked = ref [] in
    let found = ref 0 in
    for c = 0 to n_cores - 1 do
      if !found < need && Array.for_all Fun.id free.(c) then begin
        picked := c :: !picked;
        incr found
      end
    done;
    if !found < need then None
    else begin
      let cores = List.rev !picked in
      List.iter (fun c -> Array.fill free.(c) 0 smt false) cores;
      Some (List.map (fun c -> (c, 0)) cores)
    end
  end
  else begin
    let picked = ref [] in
    let found = ref 0 in
    for c = 0 to n_cores - 1 do
      for x = 0 to smt - 1 do
        if !found < need && free.(c).(x) then begin
          picked := (c, x) :: !picked;
          incr found
        end
      done
    done;
    if !found < need then None
    else begin
      let slots = List.rev !picked in
      List.iter (fun (c, x) -> free.(c).(x) <- false) slots;
      Some slots
    end
  end

(* SVt-thread service demand so far: what the stack's L1 handlers and
   command channels have consumed — the work a provisioned SVt-thread
   actually performs. *)
let svc_total tn =
  let acc = ref Time.zero in
  each_vcpu tn (fun v ->
      let bd = Vcpu.breakdown v in
      acc :=
        Time.add !acc
          (Time.add
             (Breakdown.time bd Breakdown.L1_handler)
             (Breakdown.time bd Breakdown.Channel)));
  !acc

let episodes_total tn =
  let acc = ref 0 in
  each_vcpu tn (fun v -> acc := !acc + Breakdown.exits (Vcpu.breakdown v));
  !acc

(* A tenant-less host still ticks: the clock jumps to the horizon so a
   host revived mid-fleet stays in lockstep with its peers — tenants
   admitted later start against the true host now and cannot collect
   back-entitlement for the idle stretch. Rounds are not counted while
   idle (occupancy is over scheduled rounds). *)
let run_idle t ~horizon =
  if Time.(now t < horizon) then t.clock <- horizon

(* A busy thread is slowed by each busy sibling on its core: co-resident
   compute shares issue slots instead of burning them, so the cost is
   milder than a spin-polling sibling's (0.30 vs Smt_core's 0.35). *)
let co_runner_slowdown = 0.30

let run_busy t ~horizon =
  let smt = t.smt and n_cores = t.n_cores in
  let n_threads = n_cores * smt in
  let tenants = Array.of_list t.tenants in
  let n = Array.length tenants in
  let free = Array.init n_cores (fun _ -> Array.make smt true) in
  (* busy threads per core this round: pool slots and granted slots; a
     whole-core claim's reserved siblings stay idle *)
  let busy = Array.make n_cores 0 in
  let pool =
    Array.fold_left
      (fun acc tn -> max acc tn.claim.Policy.pool_threads)
      0 tenants
  in
  let pool_slots =
    (* the K service threads live on the highest thread ids, away from
       the first-free scan's packing direction *)
    List.init
      (min pool n_threads)
      (fun i ->
        let tid = n_threads - 1 - i in
        (tid / smt, tid mod smt))
  in
  while
    Time.(now t < horizon)
    && Array.exists (fun tn -> not tn.finished) tenants
  do
    let round_start = now t in
    (* fresh occupancy: clear every thread, then reserve the pool *)
    Array.iter (fun f -> Array.fill f 0 smt true) free;
    Array.fill busy 0 n_cores 0;
    List.iter
      (fun (c, x) ->
        free.(c).(x) <- false;
        (* service threads poll/serve continuously: co-resident vCPUs
           see them as busy siblings *)
        busy.(c) <- busy.(c) + 1)
      pool_slots;
    (* classify and place, rotating the start tenant each round *)
    let granted = ref [] in
    for k = 0 to n - 1 do
      let tn = tenants.((t.cursor + k) mod n) in
      if not tn.finished then
        match System.next_event_at tn.sys with
        | None -> tn.finished <- true
        | Some next ->
            (* A future event only means "asleep" when every vCPU is
               architecturally halted (Blocked): an event beyond the
               target can also be a compute slice's completion, and
               computing toward it occupies hardware. *)
            let all_halted = ref true in
            each_vcpu tn (fun v ->
                if Vcpu.run_state v <> Vcpu.Blocked then all_halted := false);
            if Time.(next > tn.target) && !all_halted then begin
              (* asleep past its entitlement: accrues the quantum free *)
              tn.target <- Time.add tn.target t.quantum;
              tn.slept <- Time.add tn.slept t.quantum
            end
            else begin
              match try_place t free tn with
              | Some slots ->
                  granted := (tn, slots) :: !granted;
                  each_vcpu tn (fun v ->
                      if Vcpu.run_state v <> Vcpu.Blocked then
                        Vcpu.set_run_state v Vcpu.Running)
              | None ->
                  tn.steal <- Time.add tn.steal t.quantum;
                  each_vcpu tn (fun v ->
                      if Vcpu.run_state v <> Vcpu.Blocked then
                        Vcpu.set_run_state v Vcpu.Runnable)
            end
    done;
    t.cursor <- (t.cursor + 1) mod n;
    let granted = List.rev !granted in
    (* count the vCPU threads busy so co-residency factors see them *)
    List.iter
      (fun (_, slots) ->
        List.iter (fun (c, _) -> busy.(c) <- busy.(c) + 1) slots)
      granted;
    (* grant slices *)
    let round_svc = ref [] in
    List.iter
      (fun (tn, slots) ->
        let factor =
          List.fold_left
            (fun acc (c, _) ->
              acc
              +. (1.0
                 +. (co_runner_slowdown *. float_of_int (busy.(c) - 1))))
            0.0 slots
          /. float_of_int (List.length slots)
        in
        let slice = Time.scale t.quantum (t.throttle /. factor) in
        let pay = Time.min tn.debt slice in
        tn.debt <- Time.sub tn.debt pay;
        let eff = Time.sub slice pay in
        tn.granted <- Time.add tn.granted eff;
        if Time.(eff > Time.zero) then begin
          tn.target <- Time.add tn.target eff;
          ignore (System.run_slice tn.sys ~until:tn.target)
        end;
        (* post-slice accounting: service demand and donation wakes *)
        let svc = svc_total tn in
        let dsvc = Time.diff svc tn.last_svc in
        tn.last_svc <- svc;
        if tn.claim.Policy.pool_threads > 0 then
          round_svc := (tn, dsvc) :: !round_svc;
        if tn.claim.Policy.donation then begin
          let eps = episodes_total tn in
          let de = eps - tn.last_episodes in
          tn.last_episodes <- eps;
          if de > 0 then begin
            let pen = Time.scale tn.wake_cost (float_of_int de) in
            tn.debt <- Time.add tn.debt pen;
            tn.wake_penalty <- Time.add tn.wake_penalty pen
          end
        end)
      granted;
    (* shared pool: demand beyond K x quantum queues as debt, split
       integer-proportionally (deterministic, order-free) *)
    if pool > 0 then begin
      let cap = Time.scale t.quantum (float_of_int pool) in
      t.pool_capacity <- Time.add t.pool_capacity cap;
      let demand =
        List.fold_left (fun a (_, d) -> Time.add a d) Time.zero !round_svc
      in
      t.pool_busy <- Time.add t.pool_busy (Time.min demand cap);
      if Time.(demand > cap) then begin
        let over = Time.to_ns (Time.diff demand cap) in
        let dn = Time.to_ns demand in
        List.iter
          (fun (tn, d) ->
            let share = Time.of_ns (over * Time.to_ns d / dn) in
            tn.debt <- Time.add tn.debt share;
            tn.queue_penalty <- Time.add tn.queue_penalty share)
          (List.rev !round_svc)
      end
    end;
    (* occupancy: threads held this round (gangs incl. reserved
       siblings, plus the pool) *)
    let held =
      List.fold_left
        (fun acc (tn, _) ->
          acc
          + Policy.gang_threads ~smt_per_core:smt ~n_vcpus:tn.spec.n_vcpus
              tn.claim)
        (List.length pool_slots) granted
    in
    t.busy_thread_quanta <- t.busy_thread_quanta + held;
    t.clock <- Time.add round_start t.quantum;
    t.rounds <- t.rounds + 1
  done

let run t ~horizon =
  if t.tenants = [] then run_idle t ~horizon else run_busy t ~horizon

(* ---- consolidation report ---- *)

type tenant_report = {
  tenant : string;
  t_mode : Mode.t;
  t_policy : Policy.t;
  t_vcpus : int;
  ops : int;
  kops_per_sec : float;
  per_exit_us : float;
  granted_ms : float;
  steal_ms : float;
  slept_ms : float;
  wake_penalty_us : float;
  queue_penalty_us : float;
}

type report = {
  elapsed_ms : float;
  r_rounds : int;
  r_cores : int;
  r_smt : int;
  occupancy : float;
  pool_utilization : float;
  aggregate_kops : float;
  tenant_reports : tenant_report list;
}

let tenant_report elapsed_s tn =
  let overhead = ref Time.zero in
  let exits = ref 0 in
  each_vcpu tn (fun v ->
      let bd = Vcpu.breakdown v in
      overhead :=
        Time.add !overhead
          (Time.diff (Breakdown.total bd) (Breakdown.time bd Breakdown.L2_guest));
      exits := !exits + Breakdown.exits bd);
  {
    tenant = tn.spec.name;
    t_mode = tn.spec.mode;
    t_policy = tn.spec.policy;
    t_vcpus = tn.spec.n_vcpus;
    ops = tn.counters.Open_loop.ops;
    kops_per_sec =
      (if elapsed_s > 0.0 then
         float_of_int tn.counters.Open_loop.ops /. elapsed_s /. 1000.0
       else 0.0);
    per_exit_us =
      (if !exits > 0 then Time.to_us_f !overhead /. float_of_int !exits
       else 0.0);
    granted_ms = Time.to_ms_f tn.granted;
    steal_ms = Time.to_ms_f tn.steal;
    slept_ms = Time.to_ms_f tn.slept;
    wake_penalty_us = Time.to_us_f tn.wake_penalty;
    queue_penalty_us = Time.to_us_f tn.queue_penalty;
  }

let report t =
  let elapsed_s = Time.to_sec_f (now t) in
  let tenant_reports = List.map (tenant_report elapsed_s) t.tenants in
  {
    elapsed_ms = Time.to_ms_f (now t);
    r_rounds = t.rounds;
    r_cores = t.n_cores;
    r_smt = t.smt;
    occupancy =
      (if t.rounds > 0 then
         float_of_int t.busy_thread_quanta
         /. float_of_int (t.n_cores * t.smt * t.rounds)
       else 0.0);
    pool_utilization =
      (if Time.(t.pool_capacity > Time.zero) then
         float_of_int (Time.to_ns t.pool_busy)
         /. float_of_int (Time.to_ns t.pool_capacity)
       else 0.0);
    aggregate_kops =
      List.fold_left (fun a r -> a +. r.kops_per_sec) 0.0 tenant_reports;
    tenant_reports;
  }

(* Flat ledger fields (sched.* namespace). Per-tenant fields are indexed
   by admission order, which the spec fixes, so rows stay diffable. *)
let fields r =
  let host =
    [
      ("sched.elapsed_ms", r.elapsed_ms);
      ("sched.rounds", float_of_int r.r_rounds);
      ("sched.occupancy", r.occupancy);
      ("sched.pool_util", r.pool_utilization);
      ("sched.aggregate_kops", r.aggregate_kops);
    ]
  in
  let per_tenant =
    List.concat_map
      (fun tr ->
        let p k v = (Printf.sprintf "sched.%s.%s" tr.tenant k, v) in
        [
          p "kops" tr.kops_per_sec;
          p "ops" (float_of_int tr.ops);
          p "per_exit_us" tr.per_exit_us;
          p "steal_ms" tr.steal_ms;
          p "wake_us" tr.wake_penalty_us;
          p "queue_us" tr.queue_penalty_us;
        ])
      r.tenant_reports
  in
  host @ per_tenant

let pp_report ppf r =
  Fmt.pf ppf
    "host: %d cores x %d SMT | %.1f ms, %d rounds | occupancy %.1f%%%s | \
     aggregate %.1f kops/s@,"
    r.r_cores r.r_smt r.elapsed_ms r.r_rounds (100.0 *. r.occupancy)
    (if r.pool_utilization > 0.0 then
       Printf.sprintf " | pool %.1f%%" (100.0 *. r.pool_utilization)
     else "")
    r.aggregate_kops;
  Fmt.pf ppf "%-8s %-16s %-18s %5s %9s %12s %9s %9s %9s %9s@," "tenant"
    "mode" "policy" "vcpus" "kops/s" "per-exit(us)" "steal(ms)" "slept(ms)"
    "wake(us)" "queue(us)";
  List.iter
    (fun tr ->
      Fmt.pf ppf "%-8s %-16s %-18s %5d %9.1f %12.2f %9.2f %9.2f %9.1f %9.1f@,"
        tr.tenant
        (Svt_core.Mode.name tr.t_mode)
        (Policy.name tr.t_policy) tr.t_vcpus tr.kops_per_sec tr.per_exit_us
        tr.steal_ms tr.slept_ms tr.wake_penalty_us tr.queue_penalty_us)
    r.tenant_reports
