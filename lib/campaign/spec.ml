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
  arch : Backend.kind;
  mode : Mode.t;
  level : System.level;
  workload : string;
  vcpus : int;
  seed : int;
  fault : string; (* canonical fault-plan string; "" = no faults *)
  cores : int; (* host cores available to the scheduler (lib/sched) *)
  smt : int; (* hardware threads per host core *)
  tenants : int; (* co-located guest stacks *)
  policy : string; (* canonical svt_policy name; "" = scheduler default *)
  hosts : int; (* fleet size (lib/cluster) *)
}

type t = point list

let stack_workload_names =
  [ "cpuid"; "rr"; "stream"; "ioping"; "fio"; "etc"; "tpcc"; "video"; "spin" ]

let workload_names = stack_workload_names @ [ "consolidate"; "cluster" ]

(* Every axis default, stated once: the single-stack x86 point that
   predates the axes added later (arch, fault, the consolidation
   topology, policy, hosts), which is why each of those is elided from
   the canonical key and the ledger row while it sits at its default. *)
let default =
  { arch = Backend.X86; mode = Mode.Baseline; level = System.L2_nested;
    workload = "cpuid"; vcpus = 1; seed = 0; fault = ""; cores = 1; smt = 2;
    tenants = 1; policy = ""; hosts = 1 }

let point ?(arch = default.arch) ?(level = default.level)
    ?(workload = default.workload) ?(vcpus = default.vcpus)
    ?(seed = default.seed) ?(fault = default.fault) ?(cores = default.cores)
    ?(smt = default.smt) ?(tenants = default.tenants)
    ?(policy = default.policy) ?(hosts = default.hosts) mode =
  { arch; mode; level; workload; vcpus; seed; fault; cores; smt; tenants;
    policy; hosts }

(* The cross product of axes, each given as one setter per value, the
   first axis outermost; an axis left out keeps its default. *)
let product axes =
  List.fold_left
    (fun points setters ->
      List.concat_map (fun p -> List.map (fun set -> set p) setters) points)
    [ default ] axes

let cartesian ?archs ?modes ?levels ?workloads ?vcpus ?seeds ?faults ?cores
    ?smts ?tenants ?policies ?hosts () =
  let axis set = function
    | None -> []
    | Some values -> [ List.map (fun v p -> set p v) values ]
  in
  product
    (List.concat
       [
         axis (fun p arch -> { p with arch }) archs;
         axis (fun p mode -> { p with mode }) modes;
         axis (fun p level -> { p with level }) levels;
         axis (fun p workload -> { p with workload }) workloads;
         axis (fun p vcpus -> { p with vcpus }) vcpus;
         axis (fun p seed -> { p with seed }) seeds;
         axis (fun p fault -> { p with fault }) faults;
         axis (fun p cores -> { p with cores }) cores;
         axis (fun p smt -> { p with smt }) smts;
         axis (fun p tenants -> { p with tenants }) tenants;
         axis (fun p policy -> { p with policy }) policies;
         axis (fun p hosts -> { p with hosts }) hosts;
       ])

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

(* The first five fields are always present; every later axis appears
   only away from its default, so pre-existing points keep the run_ids
   (and derived PRNG streams) they had before each axis existed. The
   arch suffix comes last: x86, the only backend before the axis, is
   elided, so every historical x86 run_id is preserved. *)
let canonical_key p =
  let unless_default name show v d = if v = d then [] else [ name ^ "=" ^ show v ] in
  String.concat ";"
    ([
       "mode=" ^ Mode.to_string p.mode;
       "level=" ^ level_to_string p.level;
       "workload=" ^ p.workload;
       "vcpus=" ^ string_of_int p.vcpus;
       "seed=" ^ string_of_int p.seed;
     ]
    @ unless_default "fault" Fun.id p.fault default.fault
    @ unless_default "cores" string_of_int p.cores default.cores
    @ unless_default "smt" string_of_int p.smt default.smt
    @ unless_default "tenants" string_of_int p.tenants default.tenants
    @ unless_default "policy" Fun.id p.policy default.policy
    @ unless_default "hosts" string_of_int p.hosts default.hosts
    @ unless_default "arch" Backend.to_string p.arch default.arch)

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

let parse_axis arg =
  match String.index_opt arg '=' with
  | None -> Error (Printf.sprintf "axis %S: expected key=v1,v2,..." arg)
  | Some i ->
      let values = String.sub arg (i + 1) (String.length arg - i - 1) in
      match List.filter (( <> ) "") (String.split_on_char ',' values) with
      | [] -> Error (Printf.sprintf "axis %S: no values" arg)
      | values -> Ok (String.sub arg 0 i, values)

let map_result f values =
  List.fold_right
    (fun v acc ->
      match (acc, f v) with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok rest, Ok x -> Ok (x :: rest))
    values (Ok [])

let int_value name s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: %S is not an integer" name s)

let count name s =
  Result.bind (int_value name s) (fun n ->
      if n < 1 then Error (Printf.sprintf "%s must be >= 1 (got %d)" name n)
      else Ok n)

let workload_of_string w =
  if List.mem w workload_names then Ok w
  else
    Error
      (Printf.sprintf "unknown workload %S (expected one of %s)" w
         (String.concat ", " workload_names))

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

(* The axis grammar, in expansion order: each axis's name, the parser of
   one value into a setter, and the spelling of a point's value that the
   parser reads back. *)
let axes =
  let axis name parse set show =
    (name, (fun s -> Result.map (fun v p -> set p v) (parse s)), show)
  in
  [
    axis "arch" Backend.of_string (fun p arch -> { p with arch })
      (fun p -> Backend.to_string p.arch);
    axis "mode" Mode.of_string (fun p mode -> { p with mode })
      (fun p -> Mode.to_string p.mode);
    axis "level" level_of_string (fun p level -> { p with level })
      (fun p -> level_to_string p.level);
    axis "workload" workload_of_string (fun p workload -> { p with workload })
      (fun p -> p.workload);
    axis "vcpus" (count "vcpus") (fun p vcpus -> { p with vcpus })
      (fun p -> string_of_int p.vcpus);
    axis "seed" (int_value "seed") (fun p seed -> { p with seed })
      (fun p -> string_of_int p.seed);
    axis "fault" fault_of_string (fun p fault -> { p with fault })
      (fun p -> if p.fault = "" then "none" else p.fault);
    axis "cores" (count "cores") (fun p cores -> { p with cores })
      (fun p -> string_of_int p.cores);
    axis "smt" (count "smt") (fun p smt -> { p with smt })
      (fun p -> string_of_int p.smt);
    axis "tenants" (count "tenants") (fun p tenants -> { p with tenants })
      (fun p -> string_of_int p.tenants);
    axis "policy" policy_of_string (fun p policy -> { p with policy })
      (fun p -> if p.policy = "" then "default" else p.policy);
    axis "hosts" (count "hosts") (fun p hosts -> { p with hosts })
      (fun p -> string_of_int p.hosts);
  ]

let axis_defaults = List.map (fun (name, _, show) -> (name, show default)) axes

let of_axes given =
  let names = List.map fst axis_defaults in
  match List.find_opt (fun (k, _) -> not (List.mem k names)) given with
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown axis %S (expected one of %s)" k
           (String.concat ", " names))
  | None ->
      (* repeated keys append to one axis *)
      let values name =
        List.concat_map (fun (k, vs) -> if k = name then vs else []) given
      in
      Result.map product
        (map_result
           (fun (name, parse, _) -> map_result parse (values name))
           (List.filter (fun (name, _, _) -> values name <> []) axes))
