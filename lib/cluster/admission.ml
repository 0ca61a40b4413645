(* The admission controller's decision logic, kept pure so every rule is
   unit-testable without spinning up a fleet: quota checks, overcommit-
   capped host selection (bin-pack vs. spread), the placement-degradation
   ladder, and the re-admission backoff curve.

   Capacity here is logical, not physical: the scheduler itself lets any
   individually-feasible gang time-share a host (losers accrue steal),
   so the only thing bounding the SUM of gangs on a host is this
   controller's overcommit cap — committed gang threads may not exceed
   [overcommit x hardware threads].

   The backoff curve is [Wait.retry_backoff] re-denominated in fleet
   epochs: same doubling, same hard cap. The cap is what guarantees an
   evacuated tenant keeps getting looked at — satellite work in
   lib/core/wait.ml enforces it. *)

module Mode = Svt_core.Mode
module Wait = Svt_core.Wait
module Time = Svt_engine.Time
module Policy = Svt_sched.Policy

(* ---- placement strategy ---- *)

type strategy = Bin_pack | Spread

let strategy_name = function Bin_pack -> "bin-pack" | Spread -> "spread"

let strategy_of_string = function
  | "bin-pack" -> Ok Bin_pack
  | "spread" -> Ok Spread
  | s -> Error (Printf.sprintf "unknown placement strategy %S (bin-pack|spread)" s)

(* ---- configuration ---- *)

type config = {
  strategy : strategy;
  overcommit : float; (* committed gang threads <= overcommit x threads *)
  quota_vcpus : int; (* largest gang one tenant may request *)
  max_attempts : int; (* placement attempts before Retries_exhausted *)
}

let default_config =
  { strategy = Bin_pack; overcommit = 1.5; quota_vcpus = 8; max_attempts = 10 }

let validate_config c =
  if (not (Float.is_finite c.overcommit)) || c.overcommit < 1.0 then
    Error (Printf.sprintf "overcommit %g must be >= 1" c.overcommit)
  else if c.quota_vcpus < 1 then
    Error (Printf.sprintf "quota %d must be >= 1 vCPU" c.quota_vcpus)
  else if c.max_attempts < 1 then
    Error (Printf.sprintf "max attempts %d must be >= 1" c.max_attempts)
  else Ok c

(* ---- typed rejections ---- *)

(* Every tenant the fleet does not place ends in exactly one of these —
   the "no tenant silently lost" half of the conservation invariant. *)
type rejection =
  | Quota_exceeded of { quota : int; requested : int }
  | Retries_exhausted of { attempts : int }
  | Config_rejected of { errors : Svt_core.System.Config.error list }

let rejection_token = function
  | Quota_exceeded _ -> "quota"
  | Retries_exhausted _ -> "retries"
  | Config_rejected _ -> "config"

let pp_rejection ppf = function
  | Quota_exceeded { quota; requested } ->
      Fmt.pf ppf "quota exceeded: %d vCPUs requested, quota %d" requested quota
  | Retries_exhausted { attempts } ->
      Fmt.pf ppf "retries exhausted after %d placement attempts" attempts
  | Config_rejected { errors } ->
      Fmt.pf ppf "config rejected: %a"
        (Fmt.list ~sep:Fmt.comma Svt_core.System.Config.pp_error)
        errors

(* ---- host selection ---- *)

type host_view = { id : int; committed : int; capacity : int }

let fits c ~need v =
  v.committed + need
  <= int_of_float (Float.round (c.overcommit *. float_of_int v.capacity))

(* Pick a host for a [need]-thread gang among the live hosts, given in
   the controller's rotated scan order. Bin-pack takes the first that
   fits (filling hosts in scan order); spread takes the least-committed
   fit, ties to the lowest id — both total orders, so placement is a
   pure function of the views. *)
let pick c ~need views =
  let feasible = List.filter (fits c ~need) views in
  match c.strategy with
  | Bin_pack -> ( match feasible with [] -> None | v :: _ -> Some v.id)
  | Spread ->
      List.fold_left
        (fun best v ->
          match best with
          | None -> Some v
          | Some b ->
              if v.committed < b.committed
                 || (v.committed = b.committed && v.id < b.id)
              then Some v
              else best)
        None feasible
      |> Option.map (fun v -> v.id)

(* ---- the degradation ladder ---- *)

(* Under capacity pressure the controller walks the tenant's placement
   down to cheaper footprints instead of bouncing it: whole-core
   dedicated sibling -> a 2-thread shared pool -> on-demand donation ->
   and, as the last resort, the SVt mode itself is dropped to baseline
   (1 thread per vCPU, nothing extra). Steps are ordered cheapest-last;
   the ladder starts at the tenant's current (sticky) placement, so a
   tenant never climbs back up. Non-SW-SVt modes have no intermediate
   rungs: their footprint is fixed by the mode. *)
let ladder ~mode ~(policy : Policy.t) =
  match mode with
  | Mode.Baseline | Mode.Hw_full_nesting | Mode.Ooh -> [ (mode, policy) ]
  | Mode.Hw_svt -> [ (mode, policy); (Mode.Baseline, policy) ]
  | Mode.Sw_svt _ ->
      let rungs =
        match policy with
        | Policy.Dedicated_sibling ->
            [ Policy.Dedicated_sibling;
              Policy.Shared_pool { threads = 2 };
              Policy.On_demand_donation ]
        | Policy.Shared_pool _ -> [ policy; Policy.On_demand_donation ]
        | Policy.On_demand_donation -> [ policy ]
      in
      List.map (fun p -> (mode, p)) rungs @ [ (Mode.Baseline, policy) ]

(* ---- re-admission backoff ---- *)

(* [Wait.retry_backoff]'s curve in fleet epochs: 1, 2, 4, ... capped.
   Dividing by the attempt-0 value keeps the two denominations in
   lockstep — if the channel curve ever changes shape, so does this. *)
let backoff_epochs ~attempt =
  Time.to_ns (Wait.retry_backoff ~attempt)
  / Time.to_ns (Wait.retry_backoff ~attempt:0)

let backoff_epochs_max =
  Time.to_ns Wait.retry_backoff_max / Time.to_ns (Wait.retry_backoff ~attempt:0)
