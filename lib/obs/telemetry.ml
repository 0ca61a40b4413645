(* Live telemetry: a process-wide registry of named counters and gauges
   that long runs (sweeps, fuzz campaigns) update as they go and
   periodically snapshot into heartbeat rows, so an interrupted or
   still-running campaign carries a health trace instead of being silent
   until it finishes.

   The registry is deliberately dumb — get-or-create by name, flat
   float snapshot — because the interesting policy (what to count, when
   to snapshot, where rows go) belongs to the campaign layer. *)

type cell = Counter of int ref | Gauge of float ref

type t = { cells : (string, cell) Hashtbl.t }

let create () = { cells = Hashtbl.create 32 }

let kind_mismatch name =
  invalid_arg (Printf.sprintf "Telemetry: %S already exists with another kind" name)

let counter_ref t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Counter r) -> r
  | Some _ -> kind_mismatch name
  | None ->
      let r = ref 0 in
      Hashtbl.add t.cells name (Counter r);
      r

let gauge_ref t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Gauge r) -> r
  | Some _ -> kind_mismatch name
  | None ->
      let r = ref 0.0 in
      Hashtbl.add t.cells name (Gauge r);
      r

let incr ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let set t name v = gauge_ref t name := v

let counter t name =
  match Hashtbl.find_opt t.cells name with Some (Counter r) -> !r | _ -> 0

let gauge t name =
  match Hashtbl.find_opt t.cells name with Some (Gauge r) -> !r | _ -> 0.0

(* Flat, name-sorted snapshot. Sorted so snapshot-bearing ledger rows are
   byte-stable for a given registry state. *)
let snapshot t =
  Hashtbl.fold
    (fun name cell acc ->
      match cell with
      | Counter r -> (name, float_of_int !r) :: acc
      | Gauge r -> (name, !r) :: acc)
    t.cells []
  |> List.sort compare
