(* The orchestrator. Execution is crash-safe end-to-end:

   - while the pool runs, every completed row is appended to the ledger
     through the CRC'd [Journal] (completion order, flushed per row), so
     a kill or crash mid-sweep keeps every completed row;
   - on clean completion the journal is atomically rewritten in
     canonical spec order, so an uninterrupted campaign and an
     interrupted-then-resumed one converge on the same file;
   - [resume] recovers the journal ([Ledger.recover] tolerates the torn
     trailing line a crash leaves), reuses rows already recorded [ok]
     (last occurrence wins) and re-runs every other point — run_ids
     are content-addressed, so the re-runs produce bit-identical rows. *)

module Simulator = Svt_engine.Simulator

type outcome = {
  results : Runner.result list;
  ok : int;
  failed : int;
  timeout : int;
  skipped : int;
  reused : int;
  interrupted : bool;
  wall_s : float;
}

let exit_code o =
  if o.interrupted then 3 else if o.failed + o.timeout > 0 then 1 else 0

let result_of_outcome point (o : (string * float) list Pool.outcome) =
  let status, metrics =
    match o.Pool.result with
    | Ok metrics -> (Runner.Run_ok, metrics)
    | Error (Simulator.Budget_exhausted { events; now; max_events }) ->
        (* Deterministic timeout: the fuel counters become the row's
           metrics so the ledger records where it was cut. *)
        (Runner.Run_timeout, Runner.fuel_metrics ~events ~now ~max_events)
    | Error e ->
        let msg =
          match o.Pool.backtrace with
          | Some bt when String.trim bt <> "" ->
              Printexc.to_string e ^ "\n" ^ String.trim bt
          | _ -> Printexc.to_string e
        in
        (Runner.Run_failed msg, [])
  in
  {
    Runner.point;
    run_id = Spec.run_id point;
    status;
    wall_s = o.Pool.wall_s;
    metrics;
  }

(* A reused ledger row, replayed as a result (only [ok] rows qualify). *)
let result_of_reused (e : Ledger.entry) =
  {
    Runner.point = e.Ledger.point;
    run_id = e.Ledger.run_id;
    status = Runner.Run_ok;
    wall_s = e.Ledger.wall_s;
    metrics = e.Ledger.metrics;
  }

let execute ?jobs ?max_rows ?(resume = false) ?(deterministic = false)
    ?(progress = false) ?(progress_label = "sweep") ?ledger
    ?(run = fun p -> Runner.exec p) spec =
  let points = Array.of_list (Spec.dedup spec) in
  let t0 = Unix.gettimeofday () in
  let entry_of_result r =
    let e = Ledger.entry_of_result r in
    (* wall_s is the one nondeterministic field; pinning it makes two
       ledgers of the same campaign byte-identical (test_campaign "resume
       re-runs timeout rows" compares an interrupted-then-resumed sweep
       with an uninterrupted one) *)
    if deterministic then { e with Ledger.wall_s = 0.0 } else e
  in
  (* ---- resume: salvage ok rows recorded by a previous attempt ---- *)
  let reused_ok = Hashtbl.create 64 in
  (if resume then
     match ledger with
     | Some path when Sys.file_exists path ->
         let r = Ledger.recover path in
         (* Last occurrence wins: a journal may hold a failed row later
            superseded by a resumed re-run's ok row. *)
         let latest = Hashtbl.create 64 in
         List.iter
           (fun (e : Ledger.entry) ->
             Hashtbl.replace latest e.Ledger.run_id e)
           r.Ledger.entries;
         Array.iter
           (fun p ->
             let id = Spec.run_id p in
             match Hashtbl.find_opt latest id with
             | Some e when e.Ledger.status = "ok" ->
                 Hashtbl.replace reused_ok id e
             | _ -> ())
           points
     | _ -> ());
  let todo =
    Array.of_list
      (List.filter
         (fun p -> not (Hashtbl.mem reused_ok (Spec.run_id p)))
         (Array.to_list points))
  in
  (* ---- journal: reused rows first (atomically), then append ---- *)
  let journal =
    Option.map
      (fun path ->
        let reused_entries =
          List.filter_map
            (fun p -> Hashtbl.find_opt reused_ok (Spec.run_id p))
            (Array.to_list points)
        in
        if resume && Sys.file_exists path then
          (* Re-found ok rows become the new journal prefix; stale
             failed/duplicate rows are dropped. The rewrite is atomic,
             so interrupting the resume still cannot lose them. *)
          Journal.rewrite path reused_entries
        else if reused_entries = [] && Sys.file_exists path then
          (* Fresh campaign owns the file: stale rows of a previous
             sweep would defeat last-occurrence-wins on a later resume. *)
          Sys.remove path;
        Journal.create path)
      ledger
  in
  let prog =
    if progress && Array.length todo > 0 then
      Some (Progress.create ~label:progress_label ~total:(Array.length todo) ())
    else None
  in
  let on_result ~index (o : (string * float) list Pool.outcome) =
    let r = result_of_outcome todo.(index) o in
    Option.iter (fun j -> Journal.append j (entry_of_result r)) journal;
    Option.iter
      (fun p -> Progress.step p ~ok:(r.Runner.status = Runner.Run_ok))
      prog
  in
  let pool = Pool.map ?jobs ?stop_after:max_rows ~on_result run todo in
  Option.iter Progress.finish prog;
  Option.iter Journal.close journal;
  (* ---- assemble results in spec order ---- *)
  let ran = Hashtbl.create 64 in
  Array.iteri
    (fun i o ->
      Option.iter
        (fun o ->
          Hashtbl.replace ran (Spec.run_id todo.(i)) (result_of_outcome todo.(i) o))
        o)
    pool.Pool.outcomes;
  let results =
    List.filter_map
      (fun p ->
        let id = Spec.run_id p in
        match Hashtbl.find_opt reused_ok id with
        | Some e -> Some (result_of_reused e)
        | None -> Hashtbl.find_opt ran id)
      (Array.to_list points)
  in
  let interrupted = pool.Pool.stopped_early in
  (* On clean completion, converge the journal to the canonical file:
     every row, spec order, atomically swapped in. *)
  (match ledger with
  | Some path when not interrupted ->
      Journal.rewrite path (List.map entry_of_result results)
  | _ -> ());
  let count f = List.length (List.filter f results) in
  let status_is s (r : Runner.result) = Runner.status_name r.Runner.status = s in
  {
    results;
    ok = count (status_is "ok");
    failed = count (status_is "failed");
    timeout = count (status_is "timeout");
    skipped = Array.length points - List.length results;
    reused = Hashtbl.length reused_ok;
    interrupted;
    wall_s = Unix.gettimeofday () -. t0;
  }

let headline_metric (r : Runner.result) =
  match r.Runner.metrics with
  | [] -> "-"
  | (name, v) :: _ -> Printf.sprintf "%s=%.4g" name v

let summary_table o =
  let module Table = Svt_stats.Table in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left; Table.Right ]
      [ "run_id"; "point"; "status"; "metric"; "wall (s)" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      Table.add_row t
        [
          r.Runner.run_id;
          Spec.canonical_key r.Runner.point;
          Runner.status_name r.Runner.status;
          headline_metric r;
          Printf.sprintf "%.3f" r.Runner.wall_s;
        ])
    o.results;
  t
