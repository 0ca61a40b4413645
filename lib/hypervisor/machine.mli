(** The simulated physical host: the paper's Table 4 testbed (2× Xeon
    E5-2630v3, 8 cores each, 2-way SMT, 128 GB RAM, 10 GbE). Owns the
    simulator, the cost model, host memory, the SMT cores and the global
    metrics registry. *)

type config = {
  sockets : int;
  cores_per_socket : int;
  smt_per_core : int;
  seed : int;  (** PRNG seed: equal seeds give bit-identical simulations *)
  arch : Svt_arch.Backend.kind;
  cost : Svt_arch.Cost_model.t;
}

val paper_config : config
(** Table 4 with the calibrated {!Svt_arch.Cost_model.paper_machine}
    (arch [X86]). *)

val retarget : Svt_arch.Backend.kind -> config -> config
(** The same topology re-targeted at another ISA: [arch] and [cost]
    follow the backend, everything else is preserved. *)

type t = {
  sim : Svt_engine.Simulator.t;
  config : config;
  cost : Svt_arch.Cost_model.t;
  mem : Svt_mem.Phys_mem.t;
  alloc : Svt_mem.Frame_alloc.t;
  cores : Svt_arch.Smt_core.t option array;
      (** built on demand: read them through {!core} *)
  metrics : Svt_stats.Metrics.t;
  probe : Svt_obs.Probe.t;
  rng : Svt_engine.Prng.t;
}

val create : ?config:config -> unit -> t
val sim : t -> Svt_engine.Simulator.t
val cost : t -> Svt_arch.Cost_model.t

val arch : t -> Svt_arch.Backend.kind
(** The machine's architecture backend. *)

val core : t -> int -> Svt_arch.Smt_core.t
(** Core [i], built on its first call (a stack touches one or two of
    them). Raises [Invalid_argument] unless [i] indexes one of the
    [sockets * cores_per_socket] cores. *)

val now : t -> Svt_engine.Time.t

val probe : t -> Svt_obs.Probe.t
(** The machine's probe, what the instrumented trap paths emit spans
    through. It has no subscriber until a sink is installed with
    {!Svt_obs.Probe.subscribe}, and with none every probe site
    short-circuits (the null-sink state). *)
