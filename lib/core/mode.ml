(* Run modes of the evaluation (paper §6): the unmodified nested baseline,
   the software-only prototype on existing SMT hardware (§5.2), and the
   proposed hardware design (§4). SW SVt is parameterized by the waiting
   mechanism of its command channels and by where the SVt-thread is
   placed, the two axes of the §6.1 channel microbenchmark. *)

type wait_mechanism = Polling | Mwait | Mutex

type placement =
  | Smt_sibling (* same core, other hardware thread — the paper's choice *)
  | Same_numa_core (* different core, same socket *)
  | Cross_numa (* different socket *)

type t =
  | Baseline
  | Sw_svt of { wait : wait_mechanism; placement : placement }
  | Hw_svt
  | Hw_full_nesting
    (* the alternative design point the paper positions SVt against (§3):
       full architectural support for nested virtualization, where an L2
       trap is delivered straight to L1 without involving L0 at all. Far
       more invasive hardware; included as the upper-bound comparison. *)
  | Ooh
    (* Out-of-Hypervisor delegation (PAPERS.md): L0 delegates a set of
       single-level virtualization features — exit reasons and the VMCS
       fields their handlers touch — straight to L1, so delegated L2
       exits never reach L0 and need no SVt context transform. Residual
       exits (interrupts, I/O bounces, anything L0 keeps for itself)
       still take the full baseline reflection, plus the cost of
       re-arming the delegation afterwards. No SVt-thread is involved,
       so a consolidating host prices OoH tenants like baseline. *)

let sw_svt_default = Sw_svt { wait = Mwait; placement = Smt_sibling }

(* How a consolidated host provisions SVt-threads for its SW SVt guests
   (the §6.1 trade-off the single-stack runs cannot express). The type
   lives here rather than in lib/sched because System.Config.validate
   needs it to check thread budgets, and lib/sched sits above System. *)
type svt_policy =
  | Dedicated_sibling (* the paper's setup: the sibling is reserved *)
  | Shared_pool of { threads : int } (* K service threads serve N guests *)
  | On_demand_donation (* sibling runs other vCPUs, mwait-woken per trap *)

let default_svt_policy = Dedicated_sibling

let svt_policy_name = function
  | Dedicated_sibling -> "dedicated-sibling"
  | Shared_pool { threads } -> Printf.sprintf "shared-pool:%d" threads
  | On_demand_donation -> "on-demand-donation"

let svt_policy_of_string s =
  match s with
  | "dedicated-sibling" | "dedicated" -> Ok Dedicated_sibling
  | "on-demand-donation" | "donation" -> Ok On_demand_donation
  | "shared-pool" -> Ok (Shared_pool { threads = 2 })
  | s when String.length s > 12 && String.sub s 0 12 = "shared-pool:" -> (
      let k = String.sub s 12 (String.length s - 12) in
      match int_of_string_opt k with
      | Some threads when threads >= 1 -> Ok (Shared_pool { threads })
      | _ -> Error (Printf.sprintf "shared-pool:%s: need a positive thread count" k)
      )
  | s -> Error (Printf.sprintf "unknown SVt policy %S" s)

let wait_name = function
  | Polling -> "polling"
  | Mwait -> "mwait"
  | Mutex -> "mutex"

let placement_name = function
  | Smt_sibling -> "smt-sibling"
  | Same_numa_core -> "same-numa-core"
  | Cross_numa -> "cross-numa"

let name = function
  | Baseline -> "baseline"
  | Sw_svt { wait; placement = Smt_sibling } ->
      Printf.sprintf "sw-svt(%s)" (wait_name wait)
  | Sw_svt { wait; placement } ->
      Printf.sprintf "sw-svt(%s,%s)" (wait_name wait) (placement_name placement)
  | Hw_svt -> "hw-svt"
  | Hw_full_nesting -> "hw-full-nesting"
  | Ooh -> "ooh"

(* ---- the canonical string table ---------------------------------------

   One round-tripping table for every consumer (axis grammar, CLI, ledger,
   fuzz, sched, bench). The spellings are identity-bearing: they appear in
   [Spec.canonical_key], so changing an existing one would change every
   historical run_id. They are flatter than [name]'s pretty form because
   they must survive the comma/equals axis grammar. *)

let to_string = function
  | Baseline -> "baseline"
  | Sw_svt { wait = Mwait; placement = Smt_sibling } -> "sw-svt"
  | Sw_svt { wait; placement = Smt_sibling } -> "sw-svt-" ^ wait_name wait
  | Sw_svt { wait; placement } ->
      Printf.sprintf "sw-svt-%s@%s" (wait_name wait) (placement_name placement)
  | Hw_svt -> "hw-svt"
  | Hw_full_nesting -> "hw-full-nesting"
  | Ooh -> "ooh"

let waits = [ Polling; Mwait; Mutex ]
let placements = [ Smt_sibling; Same_numa_core; Cross_numa ]

(* [wait_name]'s inverse: the only parser of wait spellings, reached
   through the "sw-svt-<wait>" forms of [of_string]. *)
let wait_of_string s = List.find_opt (fun k -> wait_name k = s) waits

let placement_of_string s =
  List.find_opt (fun p -> placement_name p = s) placements

let of_string s =
  let err () = Error (Printf.sprintf "unknown mode %S" s) in
  match s with
  | "baseline" -> Ok Baseline
  | "sw-svt" | "sw" -> Ok sw_svt_default
  | "hw-svt" | "hw" -> Ok Hw_svt
  | "hw-full-nesting" | "full" -> Ok Hw_full_nesting
  | "ooh" | "out-of-hypervisor" -> Ok Ooh
  | s when String.length s > 7 && String.sub s 0 7 = "sw-svt-" -> (
      let rest = String.sub s 7 (String.length s - 7) in
      let wait_s, placement_s =
        match String.index_opt rest '@' with
        | Some i ->
            ( String.sub rest 0 i,
              Some (String.sub rest (i + 1) (String.length rest - i - 1)) )
        | None -> (rest, None)
      in
      match (wait_of_string wait_s, placement_s) with
      | Some wait, None -> Ok (Sw_svt { wait; placement = Smt_sibling })
      | Some wait, Some p -> (
          match placement_of_string p with
          | Some placement -> Ok (Sw_svt { wait; placement })
          | None -> err ())
      | None, _ -> err ())
  | _ -> err ()

(* Every inhabitant (each Sw_svt wait × placement spelled out), for
   round-trip property tests and exhaustive sweeps. *)
let all =
  [ Baseline; Hw_svt; Hw_full_nesting; Ooh ]
  @ List.concat_map
      (fun wait ->
        List.map (fun placement -> Sw_svt { wait; placement }) placements)
      waits
