(* The physical host: the paper's Table 4 testbed (2× Xeon E5-2630v3,
   8 cores each, 2-way SMT, 128 GB RAM, 10 GbE) as simulated resources. *)

module Simulator = Svt_engine.Simulator

type config = {
  sockets : int;
  cores_per_socket : int;
  smt_per_core : int;
  seed : int;
  arch : Svt_arch.Backend.kind;
  cost : Svt_arch.Cost_model.t;
}

let paper_config =
  {
    sockets = 2;
    cores_per_socket = 8;
    smt_per_core = 2;
    seed = 0x5EED;
    arch = Svt_arch.Backend.X86;
    cost = Svt_arch.Cost_model.paper_machine;
  }

(* The same testbed topology re-targeted at another ISA: the cost table
   follows the backend, everything else (sockets, seed) is the caller's
   to keep. *)
let retarget kind config =
  { config with arch = kind; cost = Svt_arch.Backend.cost_of kind }

type t = {
  sim : Simulator.t;
  config : config;
  cost : Svt_arch.Cost_model.t;
  mem : Svt_mem.Phys_mem.t;
  alloc : Svt_mem.Frame_alloc.t;
  cores : Svt_arch.Smt_core.t option array;
      (* each built on its first [core] call: a stack touches one or two *)
  metrics : Svt_stats.Metrics.t;
  probe : Svt_obs.Probe.t;
  rng : Svt_engine.Prng.t;
}

let ram_gb = 128

let create ?(config = paper_config) () =
  let sim = Simulator.create () in
  let n_cores = config.sockets * config.cores_per_socket in
  {
    sim;
    config;
    cost = config.cost;
    mem = Svt_mem.Phys_mem.create ();
    (* Reserve low memory for the host; guests draw frames above 1 GB. *)
    alloc =
      Svt_mem.Frame_alloc.create ~base:(1 lsl 30)
        ~size_bytes:(ram_gb * (1 lsl 30));
    cores = Array.make n_cores None;
    metrics = Svt_stats.Metrics.create ();
    probe = Svt_obs.Probe.create ~clock:(fun () -> Simulator.now sim) ();
    rng = Svt_engine.Prng.create config.seed;
  }

let sim t = t.sim
let cost t = t.cost
let arch t = t.config.arch
let core t i =
  match t.cores.(i) with
  | Some c -> c
  | None ->
      let c =
        Svt_arch.Smt_core.create ~id:i ~n_contexts:t.config.smt_per_core ()
      in
      t.cores.(i) <- Some c;
      c

let now t = Simulator.now t.sim

let probe t = t.probe
