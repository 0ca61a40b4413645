(* The orchestrator. Execution is crash-safe end-to-end:

   - while the pool runs, every completed row is appended to the ledger
     through the CRC'd [Journal] (completion order, flushed every
     [checkpoint_every] rows), so a kill or crash mid-sweep keeps every
     checkpointed row;
   - on clean completion the journal is atomically rewritten in
     canonical spec order, so an uninterrupted campaign and an
     interrupted-then-resumed one converge on the same file;
   - [resume] recovers the journal ([Ledger.recover] tolerates the torn
     trailing line a crash leaves), reuses rows already recorded [ok]
     (last occurrence wins) and re-runs failed/timeout/quarantined/
     missing points — run_ids are content-addressed, so the re-runs
     produce bit-identical rows. *)

module Simulator = Svt_engine.Simulator

type outcome = {
  results : Runner.result list;
  ok : int;
  failed : int;
  timeout : int;
  quarantined : int;
  skipped : int;
  reused : int;
  interrupted : bool;
  workers : Pool.worker_stats list;
  wall_s : float;
}

let exit_code o =
  if o.interrupted then 3
  else if o.failed + o.timeout + o.quarantined > 0 then 1
  else 0

let error_of_pool_outcome (o : 'b Pool.outcome) e =
  let base = Printexc.to_string e in
  if o.Pool.quarantined then
    match o.Pool.backtrace with
    | Some bt when String.trim bt <> "" -> base ^ "\n" ^ String.trim bt
    | _ -> base
  else base

let result_of_outcome point (o : (string * float) list Pool.outcome) =
  let status, metrics =
    match o.Pool.result with
    | Ok metrics when o.Pool.timed_out ->
        (* Successful but over the wall-clock budget: record the timeout
           without throwing the computed work away. *)
        (Runner.Run_timeout, metrics)
    | Ok metrics -> (Runner.Run_ok, metrics)
    | Error (Simulator.Budget_exhausted { events; now; fuel }) ->
        (* Preemptive, deterministic timeout: the fuel counters become
           the row's metrics so the ledger records where it was cut. *)
        (Runner.Run_timeout, Runner.fuel_metrics ~events ~now fuel)
    | Error e when o.Pool.quarantined ->
        (Runner.Run_quarantined (error_of_pool_outcome o e), [])
    | Error e -> (Runner.Run_failed (Printexc.to_string e), [])
  in
  {
    Runner.point;
    run_id = Spec.run_id point;
    status;
    attempts = o.Pool.attempts;
    wall_s = o.Pool.wall_s;
    metrics;
  }

(* A reused ledger row, replayed as a result (only [ok] rows qualify). *)
let result_of_reused (e : Ledger.entry) =
  {
    Runner.point = e.Ledger.point;
    run_id = e.Ledger.run_id;
    status = Runner.Run_ok;
    attempts = e.Ledger.attempts;
    wall_s = e.Ledger.wall_s;
    metrics = e.Ledger.metrics;
  }

let is_fatal = function Simulator.Budget_exhausted _ -> true | _ -> false

let execute ?jobs ?retries ?timeout_s ?quarantine_after ?max_rows
    ?(checkpoint_every = 1) ?(resume = false) ?(deterministic = false)
    ?(progress = false) ?(progress_label = "sweep") ?ledger
    ?(telemetry_every = 0) ?(telemetry_source = "sweep")
    ?(run = fun p -> Runner.exec p) spec =
  let module Telemetry = Svt_obs.Telemetry in
  let points = Array.of_list (Spec.dedup spec) in
  let t0 = Unix.gettimeofday () in
  let entry_of_result r =
    let e = Ledger.entry_of_result r in
    (* wall_s is the one nondeterministic field; pinning it makes two
       ledgers of the same campaign byte-identical (resume-smoke cmp's
       an interrupted-then-resumed sweep against an uninterrupted one) *)
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
  (* [todo_pos.(i)] is the spec-order position of [todo.(i)] in
     [points]; the telemetry frontier below needs it. *)
  let todo_pos =
    let l = ref [] in
    Array.iteri
      (fun i p -> if not (Hashtbl.mem reused_ok (Spec.run_id p)) then l := i :: !l)
      points;
    Array.of_list (List.rev !l)
  in
  let todo = Array.map (fun i -> points.(i)) todo_pos in
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
        Journal.create ~checkpoint_every path)
      ledger
  in
  let prog =
    if progress && Array.length todo > 0 then
      Some (Progress.create ~label:progress_label ~total:(Array.length todo) ())
    else None
  in
  (* ---- telemetry heartbeats (opt-in): one row per [telemetry_every]
     points completed *in spec order*. Completion order varies with the
     worker count, so results are folded into the campaign-local
     registry along the spec-order frontier — heartbeat k is a pure
     function of the first k*[telemetry_every] points' results, which
     makes the health trace byte-identical across --jobs counts and
     across interrupted/resumed runs (reused rows pre-fill the
     frontier). Heartbeats are kept aside so the clean-completion
     rewrite retains them. The deterministic path emits only fields
     driven by the row stream; wall-clock rates are added otherwise. *)
  let telem = Telemetry.create () in
  let hb_seq = ref 0 in
  let heartbeats = ref [] in
  let heartbeat () =
    let seq = !hb_seq in
    incr hb_seq;
    let metrics =
      Telemetry.snapshot telem
      @
      if deterministic then []
      else
        let elapsed = Unix.gettimeofday () -. t0 in
        let rows = float_of_int (Telemetry.counter telem "rows") in
        let events = Telemetry.gauge telem "sim_events" in
        let rate x = if elapsed > 0. then x /. elapsed else 0.0 in
        [
          ("elapsed_s", elapsed);
          ("rows_per_sec", rate rows);
          ("events_per_sec", rate events);
        ]
    in
    let e = Heartbeat.entry ~source:telemetry_source ~seq metrics in
    heartbeats := e :: !heartbeats;
    Option.iter (fun j -> Journal.append j e) journal
  in
  let hb_buf = Array.make (max 1 (Array.length points)) None in
  let hb_frontier = ref 0 in
  let hb_fold (r : Runner.result) =
    Telemetry.incr telem "rows";
    Telemetry.incr telem (Runner.status_name r.Runner.status);
    (match List.assoc_opt "sim_events" r.Runner.metrics with
    | Some v ->
        Telemetry.set telem "sim_events" (Telemetry.gauge telem "sim_events" +. v)
    | None -> ());
    if Telemetry.counter telem "rows" mod telemetry_every = 0 then heartbeat ()
  in
  let hb_drain () =
    while
      !hb_frontier < Array.length points
      && hb_buf.(!hb_frontier) <> None
    do
      (match hb_buf.(!hb_frontier) with Some r -> hb_fold r | None -> ());
      incr hb_frontier
    done
  in
  if telemetry_every > 0 then begin
    (* Reused rows seed the frontier, so a fully- or partially-resumed
       campaign regenerates the same heartbeats the uninterrupted run
       emitted over that prefix. *)
    Array.iteri
      (fun i p ->
        match Hashtbl.find_opt reused_ok (Spec.run_id p) with
        | Some e -> hb_buf.(i) <- Some (result_of_reused e)
        | None -> ())
      points;
    hb_drain ()
  end;
  let on_result ~index (o : (string * float) list Pool.outcome) =
    let r = result_of_outcome todo.(index) o in
    Option.iter (fun j -> Journal.append j (entry_of_result r)) journal;
    if telemetry_every > 0 then begin
      hb_buf.(todo_pos.(index)) <- Some r;
      hb_drain ()
    end;
    Option.iter
      (fun p -> Progress.step p ~ok:(r.Runner.status = Runner.Run_ok))
      prog
  in
  let pool =
    Pool.map ?jobs ?retries ?timeout_s ?quarantine_after ?stop_after:max_rows
      ~fatal:is_fatal ~on_result run todo
  in
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
      (* Heartbeats survive the canonicalising rewrite: result rows in
         spec order first, then the health trace in emission order. *)
      Journal.rewrite path
        (List.map entry_of_result results @ List.rev !heartbeats)
  | _ -> ());
  let count f = List.length (List.filter f results) in
  let status_is s (r : Runner.result) = Runner.status_name r.Runner.status = s in
  {
    results;
    ok = count (status_is "ok");
    failed = count (status_is "failed");
    timeout = count (status_is "timeout");
    quarantined = count (status_is "quarantined");
    skipped = Array.length points - List.length results;
    reused = Hashtbl.length reused_ok;
    interrupted;
    workers = pool.Pool.workers;
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
