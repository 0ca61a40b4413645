(* The fleet: many Sched.Host instances behind the admission controller,
   advanced in lockstep on a fleet virtual clock, with cluster-scope
   faults striking whole hosts and the controller repairing the damage.

   The epoch loop. Fleet time advances in fixed epochs (a handful of
   host quanta). Per epoch, in this order:

     1. revive Down hosts whose outage expired (a fresh Host, idled
        forward to fleet-now so it grants no back-entitlement);
     2. roll the fault plan: one Bernoulli draw per (kind, host) from
        the kind's own split PRNG stream, hosts in id order — draws are
        burned even for hosts the strike cannot apply to, so the
        streams never shift with fleet state;
     3. process the admission queue (quota, overcommit, ladder,
        backoff);
     4. run every live host to the epoch boundary.

   Determinism: the per-kind streams are keyed splits of the fleet
   seed, placement scan order rotates with the epoch index, queue
   processing follows submission order, and hosts run in id order.
   Same config + plan + seed + submissions => byte-identical reports.

   Failure handling mirrors the rest of the stack deliberately: hosts
   that fail K times within a sliding window are quarantined for good
   (the campaign Pool's worker quarantine, at fleet scale), evacuated
   tenants re-enter the queue under Wait.retry_backoff's capped curve,
   and under capacity pressure placements degrade down Admission.ladder
   instead of bouncing tenants. Every submitted tenant is always in
   exactly one of {placed, queued, rejected-with-reason} — the
   conservation invariant the report checks. *)

module Time = Svt_engine.Time
module Prng = Svt_engine.Prng
module Mode = Svt_core.Mode
module Cluster_kind = Svt_fault.Cluster_kind
module Cluster_plan = Svt_fault.Cluster_plan
module Policy = Svt_sched.Policy
module Host = Svt_sched.Host

(* ---- configuration ---- *)

type config = {
  n_hosts : int;
  sockets : int;
  cores_per_socket : int;
  smt_per_core : int; (* every host: sockets x cores_per_socket x smt *)
  quantum : Time.t;
  epoch : Time.t; (* fleet step; faults and admission act at this grain *)
  admission : Admission.config;
  plan : Cluster_plan.t;
  seed : int64; (* root of the per-kind fault streams *)
}

let default_config =
  {
    n_hosts = 4;
    sockets = 1;
    cores_per_socket = 4;
    smt_per_core = 2;
    quantum = Time.of_us 50;
    epoch = Time.of_us 250;
    admission = Admission.default_config;
    plan = Cluster_plan.empty;
    seed = 1L;
  }

let validate_config c =
  let below_one =
    List.find_opt
      (fun (_, v) -> v < 1)
      [ ("n_hosts", c.n_hosts); ("sockets", c.sockets);
        ("cores_per_socket", c.cores_per_socket);
        ("smt_per_core", c.smt_per_core) ]
  in
  match below_one with
  | Some (field, v) -> Error (Printf.sprintf "%s %d must be >= 1" field v)
  | None when Time.(c.quantum <= Time.zero) ->
      Error
        (Printf.sprintf "quantum %d ns must be positive" (Time.to_ns c.quantum))
  | None when Time.(c.epoch < c.quantum) ->
      Error "epoch must be at least one quantum"
  | None -> Result.map (fun _ -> c) (Admission.validate_config c.admission)

(* ---- fleet members ---- *)

type host_state =
  | Up
  | Degraded of { until : int }
  | Down of { until : int }
  | Quarantined

let state_token = function
  | Up -> "up"
  | Degraded _ -> "degraded"
  | Down _ -> "down"
  | Quarantined -> "quarantined"

type member = {
  id : int;
  mutable host : Host.t; (* rebuilt from scratch on crash/flap *)
  mutable state : host_state;
  mutable committed : int; (* gang threads the controller committed *)
  mutable strikes : int list; (* epochs of crash/flap strikes, newest first *)
  mutable crashes : int;
  mutable flaps : int;
  mutable degrades : int;
  mutable revivals : int;
}

let live m = match m.state with Up | Degraded _ -> true | Down _ | Quarantined -> false

(* ---- tenants ---- *)

type tenant_state =
  | Placed of int (* member id *)
  | Queued
  | Rejected of Admission.rejection

type tenant = {
  t_name : string;
  requested : Host.tenant_spec;
  mutable effective_mode : Mode.t; (* sticky: downgrades never revert *)
  mutable effective_policy : Policy.t;
  mutable t_state : tenant_state;
  mutable evictions : int;
  mutable readmissions : int;
  mutable downgrades : int;
  mutable attempts : int; (* failed placements since last (re)entry *)
  mutable next_try : int; (* first epoch eligible for placement *)
}

type t = {
  cfg : config;
  members : member array;
  kind_rng : Prng.t array; (* indexed by Cluster_kind.index *)
  mutable tenants : tenant list; (* submission order, reversed *)
  mutable clock : Time.t;
  mutable epoch_idx : int;
  mutable quarantines : int;
}

let host_cores cfg = cfg.sockets * cfg.cores_per_socket

let fresh_host cfg =
  Host.create ~quantum:cfg.quantum ~cores:(host_cores cfg)
    ~smt_per_core:cfg.smt_per_core ()

let create cfg =
  match validate_config cfg with
  | Error e -> invalid_arg ("Cluster.create: " ^ e)
  | Ok cfg ->
      {
        cfg;
        members =
          Array.init cfg.n_hosts (fun id ->
              {
                id;
                host = fresh_host cfg;
                state = Up;
                committed = 0;
                strikes = [];
                crashes = 0;
                flaps = 0;
                degrades = 0;
                revivals = 0;
              });
        kind_rng =
          Array.init Cluster_kind.n (fun i -> Prng.of_split cfg.seed ~index:i);
        tenants = [];
        clock = Time.zero;
        epoch_idx = 0;
        quarantines = 0;
      }

let now t = t.clock
let tenants t = List.rev t.tenants

let find_tenant t name =
  List.find_opt (fun tn -> tn.t_name = name) t.tenants

(* ---- admission ---- *)

let gang_need t tn (mode, policy) =
  Policy.host_threads ~smt_per_core:t.cfg.smt_per_core
    ~n_vcpus:tn.requested.Host.n_vcpus
    (Policy.claim ~mode policy)

(* Live hosts in this epoch's rotated scan order: the start index walks
   one host per epoch, so bin-packing pressure moves around the fleet
   deterministically instead of always riding host 0. *)
let scan_views t =
  let n = Array.length t.members in
  let start = t.epoch_idx mod n in
  List.filter_map
    (fun k ->
      let m = t.members.((start + k) mod n) in
      if live m then
        Some
          {
            Admission.id = m.id;
            committed = m.committed;
            capacity = host_cores t.cfg * t.cfg.smt_per_core;
          }
      else None)
    (List.init n Fun.id)

(* Walk the ladder from the tenant's sticky placement. Outcomes:
   [`Placed] (host found and tenant admitted), [`No_capacity] (some
   rung was blocked only by overcommit — worth retrying later), or
   [`Config] (every rung that found a host was statically rejected —
   the spec can never run on this fleet's topology). *)
let try_place t tn =
  let steps =
    Admission.ladder ~mode:tn.effective_mode ~policy:tn.effective_policy
  in
  let capacity_blocked = ref false in
  let statically_rejected = ref false in
  let rec go = function
    | [] ->
        if !capacity_blocked then `No_capacity
        else if !statically_rejected then `Config
        else `No_capacity (* no live host at all: retry later *)
    | ((mode, policy) as step) :: rest -> (
        let need = gang_need t tn step in
        match Admission.pick t.cfg.admission ~need (scan_views t) with
        | None ->
            if scan_views t <> [] then capacity_blocked := true;
            go rest
        | Some id -> (
            let m = t.members.(id) in
            let spec =
              { tn.requested with Host.mode; policy; name = tn.t_name }
            in
            match Host.add_tenant m.host spec with
            | Error _ ->
                (* same topology fleet-wide: statically infeasible here
                   means statically infeasible everywhere — next rung *)
                statically_rejected := true;
                go rest
            | Ok () ->
                m.committed <- m.committed + need;
                if mode <> tn.effective_mode || policy <> tn.effective_policy
                then begin
                  tn.downgrades <- tn.downgrades + 1;
                  tn.effective_mode <- mode;
                  tn.effective_policy <- policy
                end;
                tn.t_state <- Placed id;
                tn.attempts <- 0;
                `Placed))
  in
  go steps

(* Placement attempts before a queued tenant is rejected with
   [Retries_exhausted]. *)
let max_attempts = 10

let place_failed t tn outcome =
  match outcome with
  | `Config -> tn.t_state <- Rejected Admission.Config_rejected
  | `No_capacity ->
      if tn.attempts + 1 >= max_attempts then
        tn.t_state <- Rejected Admission.Retries_exhausted
      else begin
        tn.next_try <-
          t.epoch_idx + Admission.backoff_epochs ~attempt:tn.attempts;
        tn.attempts <- tn.attempts + 1
      end

let process_queue t =
  List.iter
    (fun tn ->
      match tn.t_state with
      | Queued when tn.next_try <= t.epoch_idx -> (
          match try_place t tn with
          | `Placed -> if tn.evictions > 0 then tn.readmissions <- tn.readmissions + 1
          | (`No_capacity | `Config) as fail -> place_failed t tn fail)
      | _ -> ())
    (tenants t)

let submit t spec =
  let name =
    if spec.Host.name = "" then
      Printf.sprintf "t%d" (List.length t.tenants)
    else spec.Host.name
  in
  (match find_tenant t name with
  | Some _ -> invalid_arg (Printf.sprintf "Cluster.submit: duplicate tenant %S" name)
  | None -> ());
  let spec = { spec with Host.name } in
  let tn =
    {
      t_name = name;
      requested = spec;
      effective_mode = spec.Host.mode;
      effective_policy = spec.Host.policy;
      t_state = Queued;
      evictions = 0;
      readmissions = 0;
      downgrades = 0;
      attempts = 0;
      next_try = t.epoch_idx;
    }
  in
  if spec.Host.n_vcpus > t.cfg.admission.Admission.quota_vcpus then
    tn.t_state <- Rejected Admission.Quota_exceeded;
  t.tenants <- tn :: t.tenants;
  name

(* ---- faults, evacuation, quarantine ---- *)

let evacuate t m =
  List.iter
    (fun tn ->
      match tn.t_state with
      | Placed id when id = m.id ->
          tn.t_state <- Queued;
          tn.evictions <- tn.evictions + 1;
          tn.attempts <- 0;
          tn.next_try <- t.epoch_idx + Admission.backoff_epochs ~attempt:0
      | _ -> ())
    t.tenants;
  m.committed <- 0

(* A host struck [quarantine_failures] times (crash or flap) within
   [quarantine_window] epochs is quarantined for good. *)
let quarantine_failures = 3
let quarantine_window = 40

(* A crash or flap: tenants evacuated, the Host value (and all its
   in-flight simulator state — work genuinely lost) discarded, strike
   recorded against the quarantine window. *)
let outage t m kind =
  evacuate t m;
  m.strikes <-
    t.epoch_idx
    :: List.filter (fun e -> e > t.epoch_idx - quarantine_window) m.strikes;
  if List.length m.strikes >= quarantine_failures then begin
    m.state <- Quarantined;
    t.quarantines <- t.quarantines + 1
  end
  else
    m.state <-
      Down { until = t.epoch_idx + Cluster_kind.outage_epochs kind }

let strike t m kind =
  match (kind : Cluster_kind.t) with
  | Host_crash ->
      m.crashes <- m.crashes + 1;
      outage t m kind
  | Host_flap ->
      m.flaps <- m.flaps + 1;
      outage t m kind
  | Host_degrade ->
      m.degrades <- m.degrades + 1;
      Host.set_throttle m.host (1.0 /. Cluster_kind.degrade_inflation);
      m.state <- Degraded { until = t.epoch_idx + Cluster_kind.degrade_epochs }

let roll_faults t =
  List.iter
    (fun kind ->
      let rng = t.kind_rng.(Cluster_kind.index kind) in
      let rate = Cluster_plan.rate t.cfg.plan kind in
      Array.iter
        (fun m ->
          (* burn the draw unconditionally: streams stay aligned no
             matter which hosts happen to be down this epoch *)
          let hit = Prng.float rng < rate in
          if hit && live m then strike t m kind)
        t.members)
    Cluster_kind.all

let expire t =
  Array.iter
    (fun m ->
      match m.state with
      | Down { until } when until <= t.epoch_idx ->
          m.host <- fresh_host t.cfg;
          (* idle the newborn forward: its clock joins the fleet's, so
             tenants placed on it later collect no back-entitlement *)
          Host.run m.host ~horizon:t.clock;
          m.state <- Up;
          m.revivals <- m.revivals + 1
      | Degraded { until } when until <= t.epoch_idx ->
          Host.set_throttle m.host 1.0;
          m.state <- Up
      | _ -> ())
    t.members

(* ---- the epoch loop ---- *)

let step t ~epoch_end =
  expire t;
  roll_faults t;
  process_queue t;
  Array.iter (fun m -> if live m then Host.run m.host ~horizon:epoch_end) t.members;
  t.clock <- epoch_end;
  t.epoch_idx <- t.epoch_idx + 1

let run t ~horizon =
  while Time.(t.clock < horizon) do
    step t ~epoch_end:(Time.min (Time.add t.clock t.cfg.epoch) horizon)
  done

(* ---- report ---- *)

type tenant_row = {
  tr_name : string;
  tr_mode : Mode.t;
  tr_policy : Policy.t;
  tr_state : string; (* "h<id>" | "queued" | rejection token *)
  tr_evictions : int;
  tr_readmissions : int;
  tr_downgrades : int;
  tr_kops : float;
  tr_per_exit_us : float;
}

type host_row = {
  hr_id : int;
  hr_state : string;
  hr_tenants : int;
  hr_occupancy : float;
  hr_kops : float;
  hr_crashes : int;
  hr_flaps : int;
  hr_degrades : int;
  hr_revivals : int;
}

type report = {
  r_epochs : int;
  r_elapsed_ms : float;
  r_hosts : int;
  r_hosts_up : int;
  r_hosts_quarantined : int;
  r_submitted : int;
  r_placed : int;
  r_queued : int;
  r_rejected : int;
  r_evictions : int;
  r_readmissions : int;
  r_downgrades : int;
  r_quarantines : int;
  r_survivor_p99_per_exit_us : float;
  r_aggregate_kops : float;
  r_conserved : bool;
  host_rows : host_row list;
  tenant_rows : tenant_row list;
}

(* p99 over a small population: the value at rank ceil(0.99 n). *)
let p99_of = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1))

let report t =
  let host_reports =
    Array.map
      (fun m -> if live m then Some (Host.report m.host) else None)
      t.members
  in
  let tenant_row tn =
    let placed_report =
      match tn.t_state with
      | Placed id -> (
          match host_reports.(id) with
          | Some r ->
              List.find_opt
                (fun (htr : Host.tenant_report) -> htr.Host.tenant = tn.t_name)
                r.Host.tenant_reports
          | None -> None)
      | _ -> None
    in
    let state =
      match tn.t_state with
      | Placed id -> Printf.sprintf "h%d" id
      | Queued -> "queued"
      | Rejected r -> Admission.rejection_token r
    in
    {
      tr_name = tn.t_name;
      tr_mode = tn.effective_mode;
      tr_policy = tn.effective_policy;
      tr_state = state;
      tr_evictions = tn.evictions;
      tr_readmissions = tn.readmissions;
      tr_downgrades = tn.downgrades;
      tr_kops =
        (match placed_report with
        | Some r -> r.Host.kops_per_sec
        | None -> 0.0);
      tr_per_exit_us =
        (match placed_report with Some r -> r.Host.per_exit_us | None -> 0.0);
    }
  in
  let tenant_rows = List.map tenant_row (tenants t) in
  let host_rows =
    Array.to_list
      (Array.map
         (fun m ->
           let r = host_reports.(m.id) in
           {
             hr_id = m.id;
             hr_state = state_token m.state;
             hr_tenants =
               List.length
                 (List.filter
                    (fun tn -> tn.t_state = Placed m.id)
                    t.tenants);
             hr_occupancy =
               (match r with Some r -> r.Host.occupancy | None -> 0.0);
             hr_kops =
               (match r with Some r -> r.Host.aggregate_kops | None -> 0.0);
             hr_crashes = m.crashes;
             hr_flaps = m.flaps;
             hr_degrades = m.degrades;
             hr_revivals = m.revivals;
           })
         t.members)
  in
  let count p = List.length (List.filter p t.tenants) in
  let placed = count (fun tn -> match tn.t_state with Placed _ -> true | _ -> false) in
  let queued = count (fun tn -> tn.t_state = Queued) in
  let rejected =
    count (fun tn -> match tn.t_state with Rejected _ -> true | _ -> false)
  in
  let submitted = List.length t.tenants in
  {
    r_epochs = t.epoch_idx;
    r_elapsed_ms = Time.to_ms_f t.clock;
    r_hosts = Array.length t.members;
    r_hosts_up =
      Array.fold_left (fun a m -> if live m then a + 1 else a) 0 t.members;
    r_hosts_quarantined =
      Array.fold_left
        (fun a m -> if m.state = Quarantined then a + 1 else a)
        0 t.members;
    r_submitted = submitted;
    r_placed = placed;
    r_queued = queued;
    r_rejected = rejected;
    r_evictions =
      List.fold_left (fun a tn -> a + tn.evictions) 0 t.tenants;
    r_readmissions =
      List.fold_left (fun a tn -> a + tn.readmissions) 0 t.tenants;
    r_downgrades =
      List.fold_left (fun a tn -> a + tn.downgrades) 0 t.tenants;
    r_quarantines = t.quarantines;
    r_survivor_p99_per_exit_us =
      p99_of
        (List.filter_map
           (fun (row : tenant_row) ->
             if row.tr_per_exit_us > 0.0 then Some row.tr_per_exit_us else None)
           tenant_rows);
    r_aggregate_kops =
      List.fold_left (fun a (row : host_row) -> a +. row.hr_kops) 0.0 host_rows;
    r_conserved = placed + queued + rejected = submitted;
    host_rows;
    tenant_rows;
  }

(* Flat cluster.* ledger fields: fleet first, then per-host and
   per-tenant in stable id/submission order. *)
let fields r =
  let fleet =
    [
      ("cluster.epochs", float_of_int r.r_epochs);
      ("cluster.hosts", float_of_int r.r_hosts);
      ("cluster.hosts_up", float_of_int r.r_hosts_up);
      ("cluster.quarantined", float_of_int r.r_hosts_quarantined);
      ("cluster.placed", float_of_int r.r_placed);
      ("cluster.queued", float_of_int r.r_queued);
      ("cluster.rejected", float_of_int r.r_rejected);
      ("cluster.evictions", float_of_int r.r_evictions);
      ("cluster.readmissions", float_of_int r.r_readmissions);
      ("cluster.downgrades", float_of_int r.r_downgrades);
      ("cluster.p99_per_exit_us", r.r_survivor_p99_per_exit_us);
      ("cluster.aggregate_kops", r.r_aggregate_kops);
      ("cluster.conserved", if r.r_conserved then 1.0 else 0.0);
    ]
  in
  let per_host =
    List.concat_map
      (fun (h : host_row) ->
        let p k v = (Printf.sprintf "cluster.h%d.%s" h.hr_id k, v) in
        [
          p "kops" h.hr_kops;
          p "occupancy" h.hr_occupancy;
          p "crashes" (float_of_int h.hr_crashes);
          p "flaps" (float_of_int h.hr_flaps);
          p "degrades" (float_of_int h.hr_degrades);
        ])
      r.host_rows
  in
  let per_tenant =
    List.concat_map
      (fun (row : tenant_row) ->
        let p k v = (Printf.sprintf "cluster.%s.%s" row.tr_name k, v) in
        [
          p "kops" row.tr_kops;
          p "evictions" (float_of_int row.tr_evictions);
          p "readmissions" (float_of_int row.tr_readmissions);
          p "downgrades" (float_of_int row.tr_downgrades);
        ])
      r.tenant_rows
  in
  fleet @ per_host @ per_tenant

let pp_report ppf r =
  Fmt.pf ppf
    "fleet: %d hosts (%d up, %d quarantined) | %.1f ms, %d epochs | tenants \
     %d = %d placed + %d queued + %d rejected%s@,"
    r.r_hosts r.r_hosts_up r.r_hosts_quarantined r.r_elapsed_ms r.r_epochs
    r.r_submitted r.r_placed r.r_queued r.r_rejected
    (if r.r_conserved then "" else "  ** CONSERVATION VIOLATED **");
  Fmt.pf ppf
    "churn: %d evictions, %d readmissions, %d downgrades, %d quarantines | \
     survivor p99 per-exit %.2f us | aggregate %.1f kops/s@,"
    r.r_evictions r.r_readmissions r.r_downgrades r.r_quarantines
    r.r_survivor_p99_per_exit_us r.r_aggregate_kops;
  Fmt.pf ppf "%-5s %-12s %7s %9s %9s %6s %6s %5s %8s@," "host" "state"
    "tenants" "occupancy" "kops/s" "crash" "flap" "slow" "revived";
  List.iter
    (fun (h : host_row) ->
      Fmt.pf ppf "h%-4d %-12s %7d %8.1f%% %9.1f %6d %6d %5d %8d@," h.hr_id
        h.hr_state h.hr_tenants
        (100.0 *. h.hr_occupancy)
        h.hr_kops h.hr_crashes h.hr_flaps h.hr_degrades h.hr_revivals)
    r.host_rows;
  Fmt.pf ppf "%-8s %-16s %-18s %-8s %5s %5s %5s %9s %12s@," "tenant" "mode"
    "policy" "state" "evict" "readm" "down" "kops/s" "per-exit(us)";
  List.iter
    (fun (row : tenant_row) ->
      Fmt.pf ppf "%-8s %-16s %-18s %-8s %5d %5d %5d %9.1f %12.2f@,"
        row.tr_name (Mode.name row.tr_mode)
        (Policy.name row.tr_policy)
        row.tr_state row.tr_evictions row.tr_readmissions row.tr_downgrades
        row.tr_kops row.tr_per_exit_us)
    r.tenant_rows
