(** Declarative description of an experiment campaign: a set of run
    points over the axes of the paper's design space (mode, level,
    workload, vCPU count, seed), built with cartesian/zip combinators or
    parsed from the [svt_sim sweep] axis grammar.

    Every point has a stable [run_id] derived by hashing its contents,
    so per-run PRNG seeding (via {!Svt_engine.Prng.of_seed}) is
    deterministic no matter how the points are ordered or which worker
    domain executes them. *)

type point = {
  arch : Svt_arch.Backend.kind;
      (** architecture backend; [X86] is the default and is elided from
          {!canonical_key}, so pre-arch-axis run_ids are preserved *)
  mode : Svt_core.Mode.t;
  level : Svt_core.System.level;
  workload : string;  (** registry name, e.g. ["cpuid"], ["rr"] *)
  vcpus : int;
  seed : int;  (** user-chosen replication index, folded into the hash *)
  fault : string;
      (** canonical fault-plan string ({!Svt_fault.Plan.to_string});
          [""] means no faults and keeps pre-fault-axis run_ids *)
  cores : int;  (** host cores available to the scheduler (default 1) *)
  smt : int;  (** hardware threads per host core (default 2) *)
  tenants : int;  (** co-located guest stacks (default 1) *)
  policy : string;
      (** canonical {!Svt_core.Mode.svt_policy} name; [""] = scheduler
          default, and keeps pre-consolidation run_ids *)
  hosts : int;
      (** fleet size for the cluster workload (lib/cluster); 1 = one
          host, and keeps pre-fleet run_ids *)
}

type t = point list

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
(** A single point; defaults: x86, [L2_nested], ["cpuid"], 1 vCPU,
    seed 0, no faults, 1 host core x 2 SMT, 1 tenant, default policy,
    1 host. *)

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
(** Full cross product of the given axes (singleton defaults as in
    {!point}). Order: archs outermost, hosts innermost. *)

val zip : ?merge:(point -> point -> point) -> t -> t -> t
(** Pointwise combination of two equal-length specs (no cross product):
    [merge a b] defaults to taking mode and level from [a] and workload,
    vcpus, seed and fault from [b]. Raises [Invalid_argument] on length
    mismatch. Useful for pairing a mode×level matrix with a per-point
    workload/seed list. *)

val ( @+ ) : t -> t -> t
(** Concatenation (campaign union). *)

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

val of_axes : (string * string list) list -> (t, string) result
(** Cartesian product of parsed axes; unknown keys, unparseable values
    and empty value lists are reported as [Error]. Repeated keys append
    to the same axis. *)

val pp_point : Format.formatter -> point -> unit
