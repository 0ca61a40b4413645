(* Measured-vs-paper comparison rendering for the bench harness and
   EXPERIMENTS.md. *)

type row = {
  metric : string;
  paper : float;
  measured : float;
  unit_ : string;
}

let ratio r = if r.paper = 0.0 then nan else r.measured /. r.paper

let to_table rows =
  let t =
    Svt_stats.Table.create
      ~aligns:[ Svt_stats.Table.Left; Right; Right; Right; Left ]
      [ "metric"; "paper"; "measured"; "meas/paper"; "unit" ]
  in
  List.iter
    (fun r ->
      Svt_stats.Table.add_row t
        [
          r.metric;
          Printf.sprintf "%.2f" r.paper;
          Printf.sprintf "%.2f" r.measured;
          Printf.sprintf "%.2fx" (ratio r);
          r.unit_;
        ])
    rows;
  t

let print rows = Svt_stats.Table.print (to_table rows)

(* ---- campaign-ledger diffing ---- *)

(* Render Ledger.diff as a table: one row per changed metric, grouped by
   run (the campaign point is repeated only on its first row). Returns
   the number of runs with drift so callers can turn it into an exit
   code. *)
let diff_ledgers_table old_entries new_entries =
  let changed = Svt_campaign.Ledger.diff old_entries new_entries in
  let t =
    Svt_stats.Table.create
      ~aligns:[ Svt_stats.Table.Left; Left; Left; Right; Right; Right ]
      [ "run_id"; "point"; "metric"; "old"; "new"; "new/old" ]
  in
  List.iter
    (fun (run_id, metrics) ->
      let point =
        match Svt_campaign.Ledger.find new_entries ~run_id with
        | Some e -> Svt_campaign.Spec.canonical_key e.Svt_campaign.Ledger.point
        | None -> "?"
      in
      List.iteri
        (fun i (name, old_v, new_v) ->
          Svt_stats.Table.add_row t
            [
              (if i = 0 then run_id else "");
              (if i = 0 then point else "");
              name;
              Printf.sprintf "%.6g" old_v;
              Printf.sprintf "%.6g" new_v;
              (if old_v = 0.0 then "-"
               else Printf.sprintf "%.4fx" (new_v /. old_v));
            ])
        metrics)
    changed;
  (t, List.length changed)

let diff_ledgers old_entries new_entries =
  let t, changed = diff_ledgers_table old_entries new_entries in
  if changed > 0 then Svt_stats.Table.print t;
  changed
