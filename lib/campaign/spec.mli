(** Declarative description of an experiment campaign: a set of run
    points over the twelve axes of the design space (arch, mode, level,
    workload, vcpus, seed, fault, cores, smt, tenants, policy, hosts),
    built with the cartesian combinator or parsed from the
    [svt_sim sweep] axis grammar.

    Every point has a stable [run_id] derived by hashing its contents,
    so per-run PRNG seeding (via {!Svt_engine.Prng.of_seed}) is
    deterministic no matter how the points are ordered or which worker
    domain executes them. *)

type point = {
  arch : Svt_arch.Backend.kind;  (** architecture backend *)
  mode : Svt_core.Mode.t;
  level : Svt_core.System.level;
  workload : string;  (** registry name, e.g. ["cpuid"], ["rr"] *)
  vcpus : int;
  seed : int;  (** user-chosen replication index, folded into the hash *)
  fault : string;
      (** canonical fault-plan string ({!Svt_fault.Plan.to_string});
          [""] means no faults *)
  cores : int;  (** host cores available to the scheduler *)
  smt : int;  (** hardware threads per host core *)
  tenants : int;  (** co-located guest stacks *)
  policy : string;
      (** canonical {!Svt_core.Mode.svt_policy} name; [""] = scheduler
          default *)
  hosts : int;  (** fleet size for the cluster workload (lib/cluster) *)
}
(** One run point. [arch] and every axis after [seed] are elided from
    {!canonical_key} (and from the ledger row, where they are optional)
    while at their {!default}, so points that predate an axis keep
    their run_ids. *)

type t = point list

val workload_names : string list
(** The workload registry: cpuid, rr, stream, ioping, fio, etc, tpcc,
    video, spin (a deliberately hung reflection loop for exercising the
    fuel budget — never run it without one), and the host-shaped
    consolidate and cluster. {!Runner} runs them. *)

val stack_workload_names : string list
(** The workloads that drive one stack, i.e. {!workload_names} without
    consolidate and cluster: the ones {!Runner.make_system} +
    {!Runner.workload_metrics} can run. *)

val default : point
(** Every axis at its default, the one place the defaults are stated:
    x86, baseline, [L2_nested], ["cpuid"], 1 vCPU, seed 0, no faults,
    1 host core x 2 SMT, 1 tenant, default policy, 1 host. *)

val point :
  ?arch:Svt_arch.Backend.kind ->
  ?level:Svt_core.System.level ->
  ?workload:string ->
  ?vcpus:int ->
  ?seed:int ->
  ?fault:string ->
  ?cores:int ->
  ?smt:int ->
  ?tenants:int ->
  ?policy:string ->
  ?hosts:int ->
  Svt_core.Mode.t ->
  point
(** A single point; an omitted axis takes its value from {!default}. *)

val cartesian :
  ?archs:Svt_arch.Backend.kind list ->
  ?modes:Svt_core.Mode.t list ->
  ?levels:Svt_core.System.level list ->
  ?workloads:string list ->
  ?vcpus:int list ->
  ?seeds:int list ->
  ?faults:string list ->
  ?cores:int list ->
  ?smts:int list ->
  ?tenants:int list ->
  ?policies:string list ->
  ?hosts:int list ->
  unit ->
  t
(** Full cross product of the given axes; an omitted axis keeps its
    {!default}. Order: archs outermost, hosts innermost. *)

(** {2 Stable identity} *)

val canonical_key : point -> string
(** The canonical textual encoding that is hashed; also a readable
    one-line description ("mode=...;level=...;..."). *)

val run_hash : point -> int64
(** FNV-1a/splitmix hash of {!canonical_key}; depends only on the
    point's contents, never on list order or scheduling. *)

val run_id : point -> string
(** [Printf.sprintf "%016Lx" (run_hash p)]. *)

val dedup : t -> t
(** Drop points with duplicate [run_id], keeping first occurrences. *)

(** {2 Axis grammar (svt_sim sweep)} *)

val level_to_string : Svt_core.System.level -> string
val level_of_string : string -> (Svt_core.System.level, string) result

val parse_axis : string -> ((string * string list), string) result
(** Parse one ["key=v1,v2,..."] argument; keys: arch, mode, level,
    workload, vcpus, seed, fault, cores, smt, tenants, policy, hosts.
    An arch value is a {!Svt_arch.Backend} name ("x86" or "arm", plus
    the aliases the backend table accepts). A fault
    value may mix {!Svt_fault.Plan} stack kinds and
    {!Svt_fault.Cluster_kind} cluster kinds on one comma list
    (canonicalized stack-first), or be ["none"] for the empty plan; a
    policy value is a {!Svt_core.Mode.svt_policy} name (canonicalized),
    or ["default"]. *)

val axis_defaults : (string * string) list
(** Every axis key of the grammar, in {!cartesian} order, with the
    spelling of its {!default} value (["none"] for no faults,
    ["default"] for the scheduler's policy). *)

val of_axes : (string * string list) list -> (t, string) result
(** Cartesian product of parsed axes, in {!cartesian} order; unknown
    keys, unparseable values, counts below 1 and workloads outside
    {!workload_names} are reported as [Error]. Repeated keys append
    to the same axis. *)
