(* Named counters and time accumulators. The hypervisor charges handler
   time here per exit reason, which is how we reproduce the paper's
   profiling claims (e.g. "L0 spends 4.8%–19.3% of the overall time serving
   EPT_MISCONFIG traps", §6.3.1). *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  timers : (string, int ref) Hashtbl.t; (* accumulated ns *)
}

let create () = { counters = Hashtbl.create 32; timers = Hashtbl.create 32 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let timer_ref t name =
  match Hashtbl.find_opt t.timers name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.timers name r;
      r

let time t name =
  match Hashtbl.find_opt t.timers name with
  | Some r -> Svt_engine.Time.of_ns !r
  | None -> Svt_engine.Time.zero

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort compare

(* Share of a timer in the total, as a fraction of [whole] (in ns). *)
let time_share t name ~whole =
  let whole_ns = Svt_engine.Time.to_ns whole in
  if whole_ns = 0 then 0.0
  else
    float_of_int (Svt_engine.Time.to_ns (time t name))
    /. float_of_int whole_ns
