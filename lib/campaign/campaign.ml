(* The orchestrator. Execution is crash-safe end-to-end:

   - while the pool runs, every completed row is appended to the ledger
     with its CRC ([Ledger.append], completion order, flushed per row),
     so a kill or crash mid-sweep keeps every completed row;
   - on clean completion the journal is atomically rewritten in
     canonical spec order, so an uninterrupted campaign and an
     interrupted-then-resumed one converge on the same file;
   - [resume] recovers the journal ([Ledger.recover] tolerates the torn
     trailing line a crash leaves), reuses rows already recorded [ok]
     (last occurrence wins) and re-runs every other point — run_ids
     are content-addressed, so the re-runs produce bit-identical rows. *)

module Simulator = Svt_engine.Simulator

type outcome = {
  results : Ledger.entry list;
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

let entry_of_outcome point (o : (string * float) list Pool.outcome) =
  let status, error, metrics =
    match o.Pool.result with
    | Ok metrics -> ("ok", None, metrics)
    | Error (Simulator.Budget_exhausted { events; now; max_events }) ->
        (* Deterministic timeout: the fuel counters become the row's
           metrics so the ledger records where it was cut. *)
        ("timeout", None, Runner.fuel_metrics ~events ~now ~max_events)
    | Error e ->
        let msg =
          match o.Pool.backtrace with
          | Some bt when String.trim bt <> "" ->
              Printexc.to_string e ^ "\n" ^ String.trim bt
          | _ -> Printexc.to_string e
        in
        ("failed", Some msg, [])
  in
  { Ledger.run_id = Spec.run_id point; point; status; error;
    wall_s = o.Pool.wall_s; metrics; data = [] }

let execute ?jobs ?max_rows ?(resume = false) ?(deterministic = false)
    ?(progress = false) ?(progress_label = "sweep") ?ledger
    ?(run = fun p -> Runner.exec p) spec =
  let points = Spec.dedup spec in
  let t0 = Unix.gettimeofday () in
  (* wall_s is the one nondeterministic field; pinning it in the written
     rows makes two ledgers of the same campaign byte-identical
     (test_campaign "resume re-runs timeout rows" compares an
     interrupted-then-resumed sweep with an uninterrupted one) *)
  let pinned (e : Ledger.entry) =
    if deterministic then { e with Ledger.wall_s = 0.0 } else e
  in
  (* ---- resume: reuse the ok rows of a previous attempt ---- *)
  (* Last occurrence wins: a journal may hold a failed row later
     superseded by a resumed re-run's ok row. *)
  let latest = Hashtbl.create 64 in
  (match ledger with
  | Some path when resume && Sys.file_exists path ->
      List.iter
        (fun (e : Ledger.entry) -> Hashtbl.replace latest e.Ledger.run_id e)
        (Ledger.recover path).Ledger.entries
  | _ -> ());
  let reused p =
    match Hashtbl.find_opt latest (Spec.run_id p) with
    | Some (e : Ledger.entry) when e.Ledger.status = "ok" -> Some e
    | _ -> None
  in
  let prefix = List.filter_map reused points in
  let todo =
    Array.of_list (List.filter (fun p -> Option.is_none (reused p)) points)
  in
  (* ---- journal: the reused rows, atomically, then appends ---- *)
  (* Re-found ok rows become the new journal prefix and stale
     failed/duplicate rows are dropped; the rewrite is atomic, so
     interrupting the resume still cannot lose them. A fresh campaign
     (no reused rows) owns the file: stale rows of a previous sweep
     would defeat last-occurrence-wins on a later resume. *)
  let journal =
    Option.map
      (fun path ->
        Ledger.rewrite path prefix;
        Ledger.writer ~crc:true path)
      ledger
  in
  let prog =
    if progress && Array.length todo > 0 then
      Some (Progress.create ~label:progress_label ~total:(Array.length todo))
    else None
  in
  let on_result ~index (o : (string * float) list Pool.outcome) =
    let e = entry_of_outcome todo.(index) o in
    Option.iter (fun j -> Ledger.append j (pinned e)) journal;
    Option.iter (fun p -> Progress.step p ~ok:(e.Ledger.status = "ok")) prog
  in
  let pool = Pool.map ?jobs ?stop_after:max_rows ~on_result run todo in
  Option.iter Progress.finish prog;
  Option.iter Ledger.close journal;
  (* ---- assemble results in spec order ---- *)
  let ran = Hashtbl.create 64 in
  Array.iteri
    (fun i o ->
      let p = todo.(i) in
      Option.iter
        (fun o -> Hashtbl.replace ran (Spec.run_id p) (entry_of_outcome p o))
        o)
    pool.Pool.outcomes;
  let results =
    List.filter_map
      (fun p ->
        match reused p with
        | None -> Hashtbl.find_opt ran (Spec.run_id p)
        | reused -> reused)
      points
  in
  let interrupted = pool.Pool.stopped_early in
  (* On clean completion, converge the journal to the canonical file:
     every row, spec order, atomically swapped in. *)
  (match ledger with
  | Some path when not interrupted ->
      Ledger.rewrite path (List.map pinned results)
  | _ -> ());
  let count s =
    List.length (List.filter (fun (e : Ledger.entry) -> e.Ledger.status = s) results)
  in
  {
    results;
    ok = count "ok";
    failed = count "failed";
    timeout = count "timeout";
    skipped = List.length points - List.length results;
    reused = List.length prefix;
    interrupted;
    wall_s = Unix.gettimeofday () -. t0;
  }

let headline_metric (e : Ledger.entry) =
  match e.Ledger.metrics with
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
    (fun (e : Ledger.entry) ->
      Table.add_row t
        [
          e.Ledger.run_id;
          Spec.canonical_key e.Ledger.point;
          e.Ledger.status;
          headline_metric e;
          Printf.sprintf "%.3f" e.Ledger.wall_s;
        ])
    o.results;
  t
