(* The spec-point -> simulation adapter. One run = one fresh System with
   a content-addressed PRNG seed, one workload drive, one flat metric
   list. Parameters are deliberately fixed small constants: a campaign
   trades per-point statistical depth for matrix breadth, and identical
   parameters are what make two ledgers diffable run_id by run_id. *)

module Time = Svt_engine.Time
module Prng = Svt_engine.Prng
module System = Svt_core.System
module Machine = Svt_hyp.Machine
module Microbench = Svt_workloads.Microbench
module Netperf = Svt_workloads.Netperf
module Disk = Svt_workloads.Disk
module Etc = Svt_workloads.Etc_workload
module Tpcc = Svt_workloads.Tpcc
module Video = Svt_workloads.Video

type status =
  | Run_ok
  | Run_failed of string
  | Run_timeout
  | Run_quarantined of string

let status_name = function
  | Run_ok -> "ok"
  | Run_failed _ -> "failed"
  | Run_timeout -> "timeout"
  | Run_quarantined _ -> "quarantined"

type result = {
  point : Spec.point;
  run_id : string;
  status : status;
  attempts : int;
  wall_s : float;
  metrics : (string * float) list;
}

let stack_workload_names =
  [ "cpuid"; "rr"; "stream"; "ioping"; "fio"; "etc"; "tpcc"; "video"; "spin" ]

let workload_names = stack_workload_names @ [ "consolidate"; "cluster" ]

(* Default event fuel for campaign runs: far above any real workload
   (the largest sweep rows record ~10^5 events) but low enough that a
   runaway run is cut in seconds, deterministically, instead of wedging
   a worker domain until a wall-clock guess expires. *)
let default_max_sim_events = 50_000_000

let fuel_metrics ~events ~now fuel =
  [ ("sim_events", float_of_int events); ("sim_now_us", Time.to_us_f now) ]
  @
  match fuel with
  | Svt_engine.Simulator.Fuel_events n ->
      [ ("budget.max_events", float_of_int n) ]
  | Svt_engine.Simulator.Fuel_time t ->
      [ ("budget.max_time_us", Time.to_us_f t) ]

let make_system ?max_sim_events ?max_sim_time (p : Spec.point) =
  (* Derive the machine seed from the run hash: independent stream per
     run_id, stable across scheduling orders (Prng satellite). The fault
     seed is a further draw from the same stream, so it is equally
     content-addressed. *)
  let rng = Prng.of_seed (Spec.run_hash p) in
  let seed = Prng.int rng (1 lsl 30) in
  let fault_seed = Prng.next_int64 rng in
  let config = { Machine.paper_config with seed } in
  let n_vcpus =
    (* memcached serves one worker per vCPU; keep the paper's 2-vCPU
       floor for it so the Figure 8 shape survives a 1-vCPU axis. *)
    if p.Spec.workload = "etc" then max 2 p.Spec.vcpus else p.Spec.vcpus
  in
  let faults =
    match Svt_fault.Plan.of_string p.Spec.fault with
    | Ok plan -> plan
    | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e)
  in
  System.of_config
    (System.Config.make ~arch:p.Spec.arch ~machine:config ~n_vcpus ~faults
       ~fault_seed ?max_sim_events ?max_sim_time ~mode:p.Spec.mode
       ~level:p.Spec.level ())

let workload_metrics (p : Spec.point) sys =
  match p.Spec.workload with
  | "cpuid" ->
      let r = Microbench.measure_cpuid sys in
      [
        ("per_op_us", r.Microbench.per_op_us);
        ("samples", float_of_int r.Microbench.stats.Svt_stats.Convergence.samples_used);
        ("exits", float_of_int r.Microbench.exits);
      ]
  | "rr" ->
      let r = Netperf.run_rr ~transactions:120 sys in
      [
        ("mean_rtt_us", r.Netperf.mean_rtt_us);
        ("p99_rtt_us", r.Netperf.p99_rtt_us);
        ("transactions", float_of_int r.Netperf.transactions);
      ]
  | "stream" ->
      let r = Netperf.run_stream ~duration:(Time.of_ms 10) sys in
      [ ("mbps", r.Netperf.mbps); ("packets", float_of_int r.Netperf.packets) ]
  | "ioping" ->
      let r = Disk.run_ioping ~ops:100 ~op:Disk.Randread sys in
      [ ("mean_us", r.Disk.mean_us); ("p99_us", r.Disk.p99_us) ]
  | "fio" ->
      let r = Disk.run_fio ~ops:200 ~depth:8 ~op:Disk.Randread sys in
      [ ("kb_per_sec", r.Disk.kb_per_sec) ]
  | "etc" ->
      let r = Etc.run_point ~duration:(Time.of_ms 30) ~qps:10_000.0 sys in
      [
        ("achieved_qps", r.Etc.achieved_qps);
        ("avg_us", r.Etc.avg_us);
        ("p99_us", r.Etc.p99_us);
        ("requests", float_of_int r.Etc.requests);
      ]
  | "tpcc" ->
      let r = Tpcc.run ~duration:(Time.of_ms 50) sys in
      [
        ("tpm", r.Tpcc.tpm);
        ("transactions", float_of_int r.Tpcc.transactions);
        ("new_orders", float_of_int r.Tpcc.new_orders);
      ]
  | "video" ->
      let r = Video.run ~seconds:30 ~fps:60 sys in
      [
        ("dropped", float_of_int r.Video.dropped);
        ("frames", float_of_int r.Video.frames);
        ("idle_fraction", r.Video.idle_fraction);
      ]
  | "spin" ->
      (* Deliberately hung: an unbounded reflection loop (every cpuid is
         a full nested exit episode), the resume-smoke / fuel-budget
         victim. Only the simulator budget ends it — with no budget set
         this never returns. *)
      let vcpu = System.vcpu0 sys in
      Svt_hyp.Vcpu.spawn_program vcpu (fun v ->
          while true do
            ignore (Svt_core.Guest.cpuid v ~leaf:1)
          done);
      System.run sys;
      [ ("iterations", nan) ]
  | ("consolidate" | "cluster") as w ->
      failwith
        (Printf.sprintf
           "workload %S is host-shaped: it builds its own hosts rather than \
            driving one stack, so run it through exec (svt_sim run)"
           w)
  | w ->
      failwith
        (Printf.sprintf "unknown workload %S (expected one of %s)" w
           (String.concat ", " workload_names))

(* The consolidation workload is host-shaped, not stack-shaped: it
   builds its own topology and tenant set from the point's cores / smt /
   tenants / policy axes and time-slices [tenants] copies of the mode
   under the scheduler. Bounded by the horizon, not by event fuel. *)
let consolidate_horizon = Time.of_ms 20

let consolidate_metrics (p : Spec.point) =
  let rng = Prng.of_seed (Spec.run_hash p) in
  let topology =
    Svt_sched.Topology.create ~sockets:1 ~cores_per_socket:p.Spec.cores
      ~smt_per_core:p.Spec.smt ()
  in
  let host = Svt_sched.Host.create ~topology () in
  let policy =
    match p.Spec.policy with
    | "" -> Svt_sched.Policy.default
    | s -> (
        match Svt_sched.Policy.of_string s with
        | Ok pol -> pol
        | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e))
  in
  for i = 0 to p.Spec.tenants - 1 do
    let spec =
      Svt_sched.Host.tenant_spec
        ~name:(Printf.sprintf "t%d" i)
        ~arch:p.Spec.arch ~policy ~n_vcpus:p.Spec.vcpus
        ~seed:(Prng.int rng (1 lsl 30))
        p.Spec.mode
    in
    match Svt_sched.Host.add_tenant host spec with
    | Ok () -> ()
    | Error errs ->
        failwith
          (Fmt.str "run %s: tenant %d rejected: %a" (Spec.run_id p) i
             (Fmt.list ~sep:Fmt.comma System.Config.pp_error)
             errs)
  done;
  Svt_sched.Host.run host ~horizon:consolidate_horizon;
  let r = Svt_sched.Host.report host in
  Svt_sched.Host.fields r
  @ [ ("sim_now_us", Time.to_us_f (Svt_sched.Host.now host)) ]

(* The fleet workload: [hosts] Sched.Hosts behind the admission
   controller, [tenants] submissions of the point's mode/policy/vcpus,
   cluster-scope faults from the point's plan. Like consolidate it is
   horizon-bounded and host-shaped; the stack half of the fault axis
   must be empty (stack faults strike inside one System — there is no
   single System here to strike). *)
let cluster_horizon = Time.of_ms 20

let cluster_metrics (p : Spec.point) =
  let stack_plan, cluster_plan =
    match Svt_fault.Cluster_plan.split_of_string p.Spec.fault with
    | Ok sp -> sp
    | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e)
  in
  if not (Svt_fault.Plan.is_empty stack_plan) then
    failwith
      (Printf.sprintf
         "run %s: cluster workload takes cluster-scope faults only (got %s)"
         (Spec.run_id p)
         (Svt_fault.Plan.to_string stack_plan));
  let policy =
    match p.Spec.policy with
    | "" -> Svt_sched.Policy.default
    | s -> (
        match Svt_sched.Policy.of_string s with
        | Ok pol -> pol
        | Error e -> failwith (Printf.sprintf "run %s: %s" (Spec.run_id p) e))
  in
  let cluster =
    Svt_cluster.Cluster.create
      {
        Svt_cluster.Cluster.default_config with
        n_hosts = p.Spec.hosts;
        sockets = 1;
        cores_per_socket = p.Spec.cores;
        smt_per_core = p.Spec.smt;
        plan = cluster_plan;
        seed = Spec.run_hash p;
      }
  in
  let rng = Prng.of_seed (Spec.run_hash p) in
  for i = 0 to p.Spec.tenants - 1 do
    ignore
      (Svt_cluster.Cluster.submit cluster
         (Svt_sched.Host.tenant_spec
            ~name:(Printf.sprintf "t%d" i)
            ~arch:p.Spec.arch ~policy ~n_vcpus:p.Spec.vcpus
            ~seed:(Prng.int rng (1 lsl 30))
            p.Spec.mode))
  done;
  Svt_cluster.Cluster.run cluster ~horizon:cluster_horizon;
  let r = Svt_cluster.Cluster.report cluster in
  Svt_cluster.Cluster.fields r
  @ [ ("sim_now_us", Time.to_us_f (Svt_cluster.Cluster.now cluster)) ]

let exec ?(max_sim_events = default_max_sim_events) ?max_sim_time p =
  if p.Spec.workload = "consolidate" then consolidate_metrics p
  else if p.Spec.workload = "cluster" then cluster_metrics p
  else
  let sys = make_system ~max_sim_events ?max_sim_time p in
  (* Per-span-kind summaries ride along in every ledger row, so
     sweep-diff can compare exit-path composition across revisions. The
     timeline sink never advances virtual time, so the workload metrics
     are identical with or without it. *)
  let tl = Svt_obs.Recorder.enable_timeline (System.obs sys) in
  let metrics = workload_metrics p sys in
  let sim = System.sim sys in
  let inj = System.injector sys in
  let fault_fields =
    if Svt_fault.Injector.is_active inj then Svt_fault.Injector.fields inj
    else []
  in
  metrics
  @ Svt_obs.Export.fields tl
  @ fault_fields
  @ [
      ("sim_events", float_of_int (Svt_engine.Simulator.events_processed sim));
      ("sim_now_us", Time.to_us_f (Svt_engine.Simulator.now sim));
    ]
