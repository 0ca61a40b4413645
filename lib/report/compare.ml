(* Measured-vs-paper comparison rendering for the sweep footer, and
   campaign-ledger diffing. *)

type row = {
  metric : string;
  paper : float;
  measured : float;
  unit_ : string;
}

let print rows =
  Svt_stats.Table.print_rows
    ~aligns:[ Svt_stats.Table.Left; Right; Right; Right; Left ]
    [ "metric"; "paper"; "measured"; "meas/paper"; "unit" ]
    (List.map
       (fun r ->
         let ratio = if r.paper = 0.0 then nan else r.measured /. r.paper in
         [ r.metric; Printf.sprintf "%.2f" r.paper;
           Printf.sprintf "%.2f" r.measured; Printf.sprintf "%.2fx" ratio;
           r.unit_ ])
       rows)

(* ---- campaign-ledger diffing ---- *)

(* Render Ledger.diff as a table: one row per changed metric, grouped by
   run (the campaign point is repeated only on its first row). Returns
   the number of runs with drift so callers can turn it into an exit
   code. *)
let diff_ledgers old_entries new_entries =
  let changed = Svt_campaign.Ledger.diff old_entries new_entries in
  let row (run_id, metrics) =
    let point =
      match Svt_campaign.Ledger.find new_entries ~run_id with
      | Some e -> Svt_campaign.Spec.canonical_key e.Svt_campaign.Ledger.point
      | None -> "?"
    in
    List.mapi
      (fun i (name, old_v, new_v) ->
        [
          (if i = 0 then run_id else "");
          (if i = 0 then point else "");
          name;
          Printf.sprintf "%.6g" old_v;
          Printf.sprintf "%.6g" new_v;
          (if old_v = 0.0 then "-" else Printf.sprintf "%.4fx" (new_v /. old_v));
        ])
      metrics
  in
  if changed <> [] then
    Svt_stats.Table.print_rows
      ~aligns:[ Svt_stats.Table.Left; Left; Left; Right; Right; Right ]
      [ "run_id"; "point"; "metric"; "old"; "new"; "new/old" ]
      (List.concat_map row changed);
  List.length changed
