(* The host's hardware-thread topology: sockets x cores x SMT threads,
   as a flat array of Smt_core.t running in Smt_mode (several contexts
   fetch concurrently; the per-context states track which threads hold
   runnable work in the current quantum — see Smt_core's host-occupancy
   API). Thread ids are core-major: tid = core * smt_per_core + ctx. *)

module Smt_core = Svt_arch.Smt_core

type t = { smt_per_core : int; cores : Smt_core.t array }

let create ?(sockets = 2) ?(cores_per_socket = 8) ?(smt_per_core = 2) () =
  if sockets < 1 || cores_per_socket < 1 || smt_per_core < 1 then
    invalid_arg "Topology.create: all dimensions must be >= 1";
  let n = sockets * cores_per_socket in
  let cores =
    Array.init n (fun id ->
        let c = Smt_core.create ~n_contexts:smt_per_core ~id () in
        Smt_core.set_mode c Smt_core.Smt_mode;
        c)
  in
  { smt_per_core; cores }

let smt_per_core t = t.smt_per_core
let n_cores t = Array.length t.cores
let n_threads t = Array.length t.cores * t.smt_per_core
let core t i = t.cores.(i)

let thread t ~core ~ctx =
  if core < 0 || core >= n_cores t || ctx < 0 || ctx >= t.smt_per_core then
    invalid_arg "Topology.thread: out of range";
  (core * t.smt_per_core) + ctx

let core_of_thread t tid = tid / t.smt_per_core
let ctx_of_thread t tid = tid mod t.smt_per_core
