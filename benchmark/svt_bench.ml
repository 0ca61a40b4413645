(* The repository benchmark. See README.md.

     svt_bench [--seed N] [--workload NAME]... [--out DIR] [--seconds S]
               [--trace 0|1] [--smoke]
     svt_bench compare --base A.json... --new B.json...

   With one workload, it runs in this process. With several, each runs
   in a child process of its own, one at a time, so heap peaks stay per
   workload. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}, with the end-to-end
   metrics under --trace 0, the per-layer ones under --trace 1, and
   both when --trace is not given. Exits 1 when any rep failed. *)

let seed = ref 1
let workloads = ref []
let out = ref "_build/benchmark"
let seconds = ref 0
let trace = ref None
let smoke = ref false

let specs =
  [
    ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
    ("--workload", Arg.String (fun w -> workloads := !workloads @ [ w ]),
     "NAME  run this workload (repeatable; default all)");
    ("--out", Arg.Set_string out, "DIR  output directory (default _build/benchmark)");
    ("--seconds", Arg.Set_int seconds,
     "S  keep making timed reps until S seconds have passed (default 0)");
    ("--trace", Arg.Int (fun t -> trace := Some (t <> 0)),
     "0|1  report only end-to-end (0) or only per-layer (1) metrics");
    ("--smoke", Arg.Set smoke, " tiny inputs and one rep; check the results file");
  ]

let usage = "svt_bench [options] | svt_bench compare --base A.json... --new B.json..."

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let result_file w = Filename.concat !out (w ^ ".json")
let results_file () = Filename.concat !out "results.json"

let run_here name =
  let w = List.find (fun (w : Workloads.t) -> w.Workloads.name = name) Workloads.all in
  let size = if !smoke then Workloads.Smoke else Workloads.Full in
  let expected_file =
    Filename.concat "benchmark/expected" (if !smoke then "smoke" else Printf.sprintf "seed-%d" !seed)
  in
  let ctx = { Workloads.seed = !seed; size; out = !out } in
  let r =
    Run.run w ctx
      ~seconds:(float_of_int !seconds)
      ~layers:(!trace <> Some false) ~expected_file
  in
  Json.write_file (result_file name) (Run.to_json r)

let run_child name =
  let args =
    [ "--seed"; string_of_int !seed; "--out"; !out; "--seconds"; string_of_int !seconds;
      "--workload"; name ]
    @ (match !trace with Some t -> [ "--trace"; if t then "1" else "0" ] | None -> [])
    @ if !smoke then [ "--smoke" ] else []
  in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED _ -> ()
  | _ -> Printf.eprintf "%s: child process was killed\n%!" name

(* results.json: every workload's own file, merged. A workload whose
   process died without writing one counts as one failed attempt. *)
let write_results names =
  let entry name =
    let file = result_file name in
    ( name,
      if Sys.file_exists file then Json.read_file file
      else {|{"attempted":1,"failed":1,"digest":"","metrics":{}}|} )
  in
  Json.write_file (results_file ())
    (Json.obj
       [
         ("seed", string_of_int !seed);
         ("smoke", string_of_bool !smoke);
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("workloads", Json.obj (List.map entry names));
       ])

(* Every metric BENCHMARK.json names must be in every workload's
   results, with the unit BENCHMARK.json gives it. *)
let catalog_problems results =
  let spec = Json.parse_file "BENCHMARK.json" in
  let wanted =
    List.map
      (fun m -> (Json.to_string (Json.field "name" m), Json.to_string (Json.field "unit" m)))
      (Json.to_list (Json.field "end_to_end" spec) @ Json.to_list (Json.field "per_layer" spec))
  in
  List.concat_map
    (fun (w, r) ->
      let metrics = Json.to_assoc (Json.field "metrics" r) in
      List.filter_map
        (fun (name, unit) ->
          match List.assoc_opt name metrics with
          | Some m when Json.to_string (Json.field "unit" m) = unit -> None
          | Some _ -> Some (Printf.sprintf "%s: %s is not in %s" w name unit)
          | None -> Some (Printf.sprintf "%s: %s is missing" w name))
        wanted)
    results

let summary_line results ~problems =
  let total k = List.fold_left (fun acc (_, r) -> acc + int_of_float (Json.to_num (Json.field k r))) 0 results in
  let attempted = total "attempted" and failed = total "failed" in
  let wanted =
    (match !trace with Some true -> [] | _ -> List.map fst Catalog.end_to_end)
    @ match !trace with Some false -> [] | _ -> List.map fst Catalog.per_layer
  in
  let prefix w = if List.length results > 1 then w ^ "." else "" in
  let metrics =
    List.concat_map
      (fun (w, r) ->
        let metrics = Json.to_assoc (Json.field "metrics" r) in
        List.filter_map
          (fun name ->
            Option.map
              (fun m ->
                ( prefix w ^ name,
                  Json.obj
                    [
                      ("value", Json.num (Json.to_num (Json.field "value" m)));
                      ("unit", Json.str (Json.to_string (Json.field "unit" m)));
                    ] ))
              (List.assoc_opt name metrics))
          wanted)
      results
  in
  let correct = failed = 0 && attempted > 0 && problems = [] in
  ( correct,
    Json.obj
      [
        ("correct", string_of_bool correct);
        ("attempted", string_of_int attempted);
        ("failed", string_of_int failed);
        ("metrics", Json.obj metrics);
      ] )

let main () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let known = List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all in
  let names = if !workloads = [] then known else !workloads in
  List.iter
    (fun w ->
      if not (List.mem w known) then begin
        Printf.eprintf "unknown workload %S (expected one of %s)\n" w (String.concat ", " known);
        exit 2
      end)
    names;
  mkdir_p !out;
  List.iter (fun w -> if Sys.file_exists (result_file w) then Sys.remove (result_file w)) names;
  (match names with
  | [ w ] -> run_here w
  | _ -> List.iter run_child names);
  write_results names;
  let results = Json.to_assoc (Json.field "workloads" (Json.parse_file (results_file ()))) in
  let problems = if !smoke then catalog_problems results else [] in
  List.iter (Printf.printf "results check: %s\n") problems;
  let correct, line = summary_line results ~problems in
  print_endline line;
  if correct then 0 else 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> exit (Compare.main rest)
  | _ -> exit (main ())
