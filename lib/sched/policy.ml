(* SVt-thread provisioning policies, turned into concrete gang claims.

   The policy type itself lives in Mode (System.Config.validate needs it
   below this layer); here it is priced: how many hardware threads a
   tenant's vCPU gang pins, whether whole cores are claimed, how many
   host-global service threads a shared pool reserves, and what a
   donated sibling charges per trap episode. *)

module Time = Svt_engine.Time
module Mode = Svt_core.Mode
module Wait = Svt_core.Wait

type t = Mode.svt_policy =
  | Dedicated_sibling
  | Shared_pool of { threads : int }
  | On_demand_donation

let default = Mode.default_svt_policy
let name = Mode.svt_policy_name
let of_string = Mode.svt_policy_of_string

(* The policy only means something for SW SVt stacks. *)
let label mode p =
  match mode with
  | Mode.Sw_svt _ -> Mode.to_string mode ^ "/" ^ name p
  | Mode.Baseline | Mode.Hw_svt | Mode.Hw_full_nesting | Mode.Ooh ->
      Mode.to_string mode

type claim = {
  threads_per_vcpu : int;
  whole_core : bool;
  pool_threads : int;
  donation : bool;
}

let claim ~(mode : Mode.t) (p : t) =
  match mode with
  | Mode.Baseline | Mode.Hw_full_nesting | Mode.Ooh ->
      (* no SVt-thread at all (OoH delegates to L1 in-place): one
         hardware thread per vCPU, siblings free for co-runners *)
      { threads_per_vcpu = 1; whole_core = false; pool_threads = 0;
        donation = false }
  | Mode.Hw_svt ->
      (* SVt hardware fetches from exactly one context of the core at a
         time (§4): the vCPU's stack owns the whole core, no co-runner
         can use the siblings *)
      { threads_per_vcpu = 1; whole_core = true; pool_threads = 0;
        donation = false }
  | Mode.Sw_svt _ -> (
      match p with
      | Dedicated_sibling ->
          (* the paper's setup: the sibling is reserved for the
             SVt-thread and never runs other work *)
          { threads_per_vcpu = 1; whole_core = true; pool_threads = 0;
            donation = false }
      | Shared_pool { threads } ->
          { threads_per_vcpu = 1; whole_core = false;
            pool_threads = threads; donation = false }
      | On_demand_donation ->
          { threads_per_vcpu = 1; whole_core = false; pool_threads = 0;
            donation = true })

(* Threads a tenant's gang occupies while granted (host-global pool
   threads are accounted separately, once). *)
let gang_threads ~smt_per_core ~n_vcpus c =
  n_vcpus * (if c.whole_core then smt_per_core else 1)

(* What an on-demand-donated sibling costs per trap episode: the
   SVt-thread is not parked in mwait on the command line (the sibling is
   running someone else's vCPU), so every episode pays a full wait setup
   plus the wake response for the mode's placement. *)
let donation_wake_cost cm (mode : Mode.t) =
  match mode with
  | Mode.Sw_svt { wait; placement } ->
      Time.add (Wait.enter_cost cm wait)
        (Wait.response_latency cm ~wait ~placement)
  | Mode.Baseline | Mode.Hw_svt | Mode.Hw_full_nesting | Mode.Ooh -> Time.zero
