(* svt_bench compare: results files of a base and a new build, paired in
   the order given (run the two builds alternately), judged per workload
   and end-to-end metric with the bounds in BENCHMARK.json:

   - better: the new side wins at least 9 of 10 pairs (ties count for
     neither) and the medians differ by more than the base's quartile
     spread;
   - unresolved: the base's quartile spread is wider than the bound,
     and not every new run beats every base run;
   - worse: the new median is worse than the base median by more than
     the bound;
   - same: none of the above.

   failed_ratio (failed / attempted reps, summed over the files) is
   worse on any increase. Exits 1 when any row is worse. *)

let workloads file = Json.to_assoc (Json.field "workloads" (Json.parse_file file))

let values results w metric =
  List.map
    (fun r ->
      Json.to_num (Json.field "value" (Json.field metric (Json.field "metrics" (List.assoc w r)))))
    results

let failed_ratio results w =
  let total k =
    List.fold_left (fun acc r -> acc +. Json.to_num (Json.field k (List.assoc w r))) 0.0 results
  in
  total "failed" /. total "attempted"

let verdict ~higher ~bound base fresh =
  let beats a b = if higher then a > b else a < b in
  let n = min (List.length base) (List.length fresh) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let won = List.length (List.filter Fun.id (List.map2 (fun b f -> beats f b) (first base) (first fresh))) in
  let b = Stats.summarize base and f = Stats.summarize fresh in
  let spread = b.Stats.q3 -. b.Stats.q1 in
  let worse_by = (if higher then b.Stats.value -. f.Stats.value else f.Stats.value -. b.Stats.value) /. b.Stats.value in
  let verdict =
    if float_of_int won >= 0.9 *. float_of_int n && Float.abs (f.Stats.value -. b.Stats.value) > spread
    then "better"
    else if
      spread /. b.Stats.value > bound
      && not (List.for_all (fun x -> List.for_all (beats x) base) fresh)
    then "unresolved"
    else if worse_by > bound then "worse"
    else "same"
  in
  (b, f, Printf.sprintf "%d/%d" won n, verdict)

let usage = "usage: svt_bench compare --base A.json... --new B.json..."

let main args =
  let rec split ((base, fresh) as acc) side = function
    | [] -> Ok (List.rev base, List.rev fresh)
    | "--base" :: rest -> split acc `Base rest
    | "--new" :: rest -> split acc `New rest
    | f :: rest -> (
        match side with
        | `Base -> split (f :: base, fresh) side rest
        | `New -> split (base, f :: fresh) side rest
        | `None -> Error ("expected --base or --new before " ^ f))
  in
  match split ([], []) `None args with
  | Error msg ->
      prerr_endline msg;
      prerr_endline usage;
      2
  | Ok ([], _) | Ok (_, []) ->
      prerr_endline usage;
      2
  | Ok (base_files, new_files) ->
      let base = List.map workloads base_files and fresh = List.map workloads new_files in
      let metrics =
        List.map
          (fun m ->
            ( Json.to_string (Json.field "name" m),
              Json.to_string (Json.field "better" m) = "higher",
              Json.to_num (Json.field "bound" m) ))
          (Json.to_list (Json.field "end_to_end" (Json.parse_file "BENCHMARK.json")))
      in
      let g = Printf.sprintf "%.6g" in
      let show (s : Stats.summary) = Printf.sprintf "%s [%s %s]" (g s.Stats.value) (g s.Stats.q1) (g s.Stats.q3) in
      let row w name b f won v = Printf.printf "%-6s %-14s %-34s %-34s %7s  %s\n" w name b f won v in
      row "" "metric" "base median [q1 q3]" "new median [q1 q3]" "won" "verdict";
      let worse = ref false in
      List.iter
        (fun w ->
          List.iter
            (fun (name, higher, bound) ->
              let b, f, won, v = verdict ~higher ~bound (values base w name) (values fresh w name) in
              if v = "worse" then worse := true;
              row w name (show b) (show f) won (Printf.sprintf "%s (bound %g)" v bound))
            metrics;
          let fb = failed_ratio base w and fn = failed_ratio fresh w in
          if fn > fb then worse := true;
          row w "failed_ratio" (g fb) (g fn) "" (if fn > fb then "worse" else "same"))
        (List.map fst (List.hd base));
      Printf.printf "%d base and %d new results files\n" (List.length base_files)
        (List.length new_files);
      if !worse then 1 else 0
