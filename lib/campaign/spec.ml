(* Campaign specs: the run matrix as data. A spec is just a point list;
   the combinators build matrices and the axis-grammar parser turns
   `--axis mode=baseline,hw-svt --axis level=l1,l2` into one.

   Identity is content-addressed: run_id hashes the canonical key of the
   point, so two campaigns that enumerate the same point in different
   orders (or shard it to different worker domains) agree on its id and
   therefore on its derived PRNG stream. *)

module Mode = Svt_core.Mode
module System = Svt_core.System
module Backend = Svt_arch.Backend

type point = {
  arch : Backend.kind; (* architecture backend; X86 = pre-arch-axis runs *)
  mode : Mode.t;
  level : System.level;
  workload : string;
  vcpus : int;
  seed : int;
  fault : string; (* canonical fault-plan string; "" = no faults *)
  (* host-consolidation axes (lib/sched); the defaults describe the
     single-stack runs that predate them *)
  cores : int; (* host cores available to the scheduler *)
  smt : int; (* hardware threads per host core *)
  tenants : int; (* co-located guest stacks *)
  policy : string; (* canonical svt_policy name; "" = scheduler default *)
  hosts : int; (* fleet size (lib/cluster); 1 = single host, pre-fleet *)
}

type t = point list

let point ?(arch = Backend.X86) ?(level = System.L2_nested)
    ?(workload = "cpuid") ?(vcpus = 1) ?(seed = 0) ?(fault = "") ?(cores = 1)
    ?(smt = 2) ?(tenants = 1) ?(policy = "") ?(hosts = 1) mode =
  { arch; mode; level; workload; vcpus; seed; fault; cores; smt; tenants;
    policy; hosts }

let cartesian ?(archs = [ Backend.X86 ]) ?(modes = [ Mode.Baseline ])
    ?(levels = [ System.L2_nested ]) ?(workloads = [ "cpuid" ])
    ?(vcpus = [ 1 ]) ?(seeds = [ 0 ]) ?(faults = [ "" ]) ?(cores = [ 1 ])
    ?(smts = [ 2 ]) ?(tenants = [ 1 ]) ?(policies = [ "" ]) ?(hosts = [ 1 ])
    () =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun level ->
              List.concat_map
                (fun workload ->
                  List.concat_map
                    (fun n ->
                      List.concat_map
                        (fun seed ->
                          List.concat_map
                            (fun fault ->
                              List.concat_map
                                (fun c ->
                                  List.concat_map
                                    (fun s ->
                                      List.concat_map
                                        (fun tn ->
                                          List.concat_map
                                            (fun policy ->
                                              List.map
                                                (fun h ->
                                                  {
                                                    arch;
                                                    mode;
                                                    level;
                                                    workload;
                                                    vcpus = n;
                                                    seed;
                                                    fault;
                                                    cores = c;
                                                    smt = s;
                                                    tenants = tn;
                                                    policy;
                                                    hosts = h;
                                                  })
                                                hosts)
                                            policies)
                                        tenants)
                                    smts)
                                cores)
                            faults)
                        seeds)
                    vcpus)
                workloads)
            levels)
        modes)
    archs

let default_merge a b =
  { a with workload = b.workload; vcpus = b.vcpus; seed = b.seed;
    fault = b.fault; cores = b.cores; smt = b.smt; tenants = b.tenants;
    policy = b.policy; hosts = b.hosts }

let zip ?(merge = default_merge) a b =
  if List.length a <> List.length b then
    invalid_arg "Spec.zip: length mismatch";
  List.map2 merge a b

let ( @+ ) = List.append

(* ---- canonical naming ---- *)

(* Mode and arch spellings come from [Svt_core.Mode] and [Svt_arch.Backend]
   (each is its type's own identity); the campaign layer only owns the
   level table and decides when an axis appears in the key. *)
let level_to_string = function
  | System.L0_native -> "l0"
  | System.L1_leaf -> "l1"
  | System.L2_nested -> "l2"

let level_of_string = function
  | "l0" | "native" -> Ok System.L0_native
  | "l1" -> Ok System.L1_leaf
  | "l2" | "nested" -> Ok System.L2_nested
  | s -> Error (Printf.sprintf "unknown level %S" s)

(* The fault and consolidation suffixes appear only when set away from
   their defaults, so pre-existing points keep the run_ids (and derived
   PRNG streams) they had before each axis existed. The arch suffix
   follows the same rule: x86 (the only backend that existed before the
   axis) is elided, so every historical x86 run_id is preserved. *)
let canonical_key p =
  let base =
    Printf.sprintf "mode=%s;level=%s;workload=%s;vcpus=%d;seed=%d"
      (Mode.to_string p.mode) (level_to_string p.level) p.workload p.vcpus
      p.seed
  in
  let base = if p.fault = "" then base else base ^ ";fault=" ^ p.fault in
  let base = if p.cores = 1 then base else Printf.sprintf "%s;cores=%d" base p.cores in
  let base = if p.smt = 2 then base else Printf.sprintf "%s;smt=%d" base p.smt in
  let base =
    if p.tenants = 1 then base else Printf.sprintf "%s;tenants=%d" base p.tenants
  in
  let base = if p.policy = "" then base else base ^ ";policy=" ^ p.policy in
  let base =
    if p.hosts = 1 then base else Printf.sprintf "%s;hosts=%d" base p.hosts
  in
  if Backend.equal p.arch Backend.X86 then base
  else base ^ ";arch=" ^ Backend.to_string p.arch

(* FNV-1a over the canonical key, then a splitmix64 finalizer for
   diffusion (FNV alone keeps low-byte correlations between nearby keys,
   and the hash seeds a PRNG downstream). *)
let run_hash p =
  let key = canonical_key p in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    key;
  let z = Int64.add !h 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let run_id p = Printf.sprintf "%016Lx" (run_hash p)

let dedup points =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let id = run_id p in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    points

(* ---- axis grammar ---- *)

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

let parse_axis arg =
  match String.index_opt arg '=' with
  | None -> Error (Printf.sprintf "axis %S: expected key=v1,v2,..." arg)
  | Some i ->
      let key = String.sub arg 0 i in
      let values = split_commas (String.sub arg (i + 1) (String.length arg - i - 1)) in
      if values = [] then Error (Printf.sprintf "axis %S: no values" arg)
      else Ok (key, values)

let collect_axis axes key =
  List.concat_map (fun (k, vs) -> if k = key then vs else []) axes

let map_result f values =
  List.fold_right
    (fun v acc ->
      match (acc, f v) with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok rest, Ok x -> Ok (x :: rest))
    values (Ok [])

let int_of_string_res what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: %S is not an integer" what s)

(* Parse and canonicalize one fault-plan axis value, so equivalent
   spellings ("drop-ring:0.010" vs "drop-ring:0.01") share a run_id.
   The value may mix stack kinds and cluster kinds on one comma list;
   the canonical combined form keeps stack entries first, so pure stack
   plans canonicalize exactly as they always did. *)
let fault_of_string s =
  (* "none" lets one axis mix fault-free and faulty points (the comma
     grammar cannot carry an empty value) *)
  if s = "none" then Ok ""
  else
    Result.map
      (fun (stack, cluster) ->
        Svt_fault.Cluster_plan.combined_to_string stack cluster)
      (Svt_fault.Cluster_plan.split_of_string s)

(* Parse and canonicalize one svt-policy axis value, so "shared-pool"
   and "shared-pool:2" share a run_id; "default" lets one axis mix the
   scheduler default with explicit policies. *)
let policy_of_string s =
  if s = "" || s = "default" then Ok ""
  else Result.map Mode.svt_policy_name (Mode.svt_policy_of_string s)

let of_axes axes =
  let known =
    [ "arch"; "mode"; "level"; "workload"; "vcpus"; "seed"; "fault"; "cores";
      "smt"; "tenants"; "policy"; "hosts" ]
  in
  match List.find_opt (fun (k, _) -> not (List.mem k known)) axes with
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown axis %S (expected one of %s)" k
           (String.concat ", " known))
  | None -> (
      let or_default d = function [] -> d | vs -> vs in
      let ( let* ) = Result.bind in
      let* archs =
        map_result Backend.of_string
          (or_default [ "x86" ] (collect_axis axes "arch"))
      in
      let* modes =
        map_result Mode.of_string (or_default [ "baseline" ] (collect_axis axes "mode"))
      in
      let* levels =
        map_result level_of_string (or_default [ "l2" ] (collect_axis axes "level"))
      in
      let workloads = or_default [ "cpuid" ] (collect_axis axes "workload") in
      let* vcpus =
        map_result (int_of_string_res "vcpus")
          (or_default [ "1" ] (collect_axis axes "vcpus"))
      in
      let* seeds =
        map_result (int_of_string_res "seed")
          (or_default [ "0" ] (collect_axis axes "seed"))
      in
      let* faults =
        map_result fault_of_string (or_default [ "" ] (collect_axis axes "fault"))
      in
      let* cores =
        map_result (int_of_string_res "cores")
          (or_default [ "1" ] (collect_axis axes "cores"))
      in
      let* smts =
        map_result (int_of_string_res "smt")
          (or_default [ "2" ] (collect_axis axes "smt"))
      in
      let* tenants =
        map_result (int_of_string_res "tenants")
          (or_default [ "1" ] (collect_axis axes "tenants"))
      in
      let* policies =
        map_result policy_of_string (or_default [ "" ] (collect_axis axes "policy"))
      in
      let* hosts =
        map_result (int_of_string_res "hosts")
          (or_default [ "1" ] (collect_axis axes "hosts"))
      in
      let positive what vs =
        match List.find_opt (fun n -> n < 1) vs with
        | Some n -> Error (Printf.sprintf "%s must be >= 1 (got %d)" what n)
        | None -> Ok vs
      in
      let* vcpus = positive "vcpus" vcpus in
      let* cores = positive "cores" cores in
      let* smts = positive "smt" smts in
      let* tenants = positive "tenants" tenants in
      let* hosts = positive "hosts" hosts in
      Ok
        (cartesian ~archs ~modes ~levels ~workloads ~vcpus ~seeds ~faults
           ~cores ~smts ~tenants ~policies ~hosts ()))

let pp_point ppf p = Fmt.string ppf (canonical_key p)
