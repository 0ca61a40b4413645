(* One workload in one process: a discarded warm-up rep, timed reps with
   tracing off, then (when per-layer metrics are wanted) one traced rep
   plus the stack-construction and guest-memory probes. Every rep's
   simulated outputs must hash to the same digest, and to the pinned
   one when the seed has a file under expected/. *)

module W = Workloads

type result = {
  attempted : int;
  failed : int;
  digest : string;  (** of the simulated outputs; "" when no rep ran *)
  metrics : (string * Stats.summary) list;
}

(* Host speed. The machines this runs on are shared, and how fast they
   execute drifts by 10-50% over tens of seconds, which would swamp the
   changes the benchmark exists to see. So a fixed piece of work shaped
   like the simulator's own, building and searching small balanced
   trees (Stdlib's Map), is timed around every timed rep, and the reps'
   host times are reported scaled to its nominal time:
   t * nominal_reference_s / r, with r the median reference timing of
   the run. The raw times are reported beside them.

   Like the simulator, the reference allocates, branches and chases
   pointers, but it calls no library code. On a busy machine an integer
   loop or a walk through a 16 MB array slowed down far less than the
   workloads did; trees tracked them better (see README.md). Each tree
   fits in the minor heap and dies there, so the reference promotes
   nothing and leaves the major heap to the workload. *)
let nominal_reference_s = 0.020

module Int_map = Map.Make (Int)

let reference_s () =
  let next x = ((x * 1103515245) + 12345) land 0x3fffffff in
  let t0 = Unix.gettimeofday () in
  let x = ref 1 and sum = ref 0 in
  for _ = 1 to 24 do
    (* The last round's tree is garbage now; emptying the minor heap
       here means no tree ever lives through a minor collection, so
       none is promoted into the major heap. *)
    Gc.minor ();
    let tree = ref Int_map.empty in
    for i = 1 to 2_000 do
      x := next !x;
      tree := Int_map.add !x i !tree
    done;
    for _ = 1 to 4_000 do
      x := next !x;
      match Int_map.find_first_opt (fun k -> k >= !x) !tree with
      | Some (_, v) -> sum := !sum + v
      | None -> ()
    done
  done;
  ignore (Sys.opaque_identity !sum);
  Unix.gettimeofday () -. t0

(* The digest pinned for [workload] in [file]: lines "<workload> <md5>". *)
let pinned file workload =
  if not (Sys.file_exists file) then None
  else
    In_channel.with_open_text file In_channel.input_lines
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; d ] when w = workload -> Some d
           | _ -> None)

(* Every rep starts from a collected heap, so it pays for its own
   garbage only, not for what the previous rep left behind. *)
let fresh rep ctx () =
  Gc.full_major ();
  rep ctx

let g = Printf.sprintf "%.6g"

let print_metric workload (name, (s : Stats.summary)) =
  Printf.printf "%-6s %-34s %12s [%s %s] %d %s\n" workload name (g s.Stats.value)
    (g s.Stats.q1) (g s.Stats.q3) s.Stats.n (Catalog.unit_of name)

let run (w : W.t) (ctx : W.ctx) ~seconds ~layers ~expected_file =
  let attempted = ref 0 and failed = ref 0 in
  let expected = ref (pinned expected_file w.W.name) in
  let fail what msg =
    incr failed;
    Printf.eprintf "%s: %s failed: %s\n%!" w.W.name what msg
  in
  (* Run [f]; a raise, or outputs whose digest differs from the pinned
     one (or the first rep's), counts as a failure. *)
  let attempt what ?(outputs = fun _ -> None) f =
    incr attempted;
    match f () with
    | exception e ->
        fail what (Printexc.to_string e);
        None
    | v -> (
        match (outputs v, !expected) with
        | None, _ -> Some v
        | Some o, None ->
            expected := Some (Digest.to_hex (Digest.string o));
            Some v
        | Some o, Some d when Digest.to_hex (Digest.string o) = d -> Some v
        | Some o, Some d ->
            fail what
              (Printf.sprintf "outputs digest %s, expected %s; outputs: %s"
                 (Digest.to_hex (Digest.string o)) d o);
            None)
  in
  let rep_outputs (r : W.rep) = Some r.W.outputs in
  ignore (attempt "warm-up rep" ~outputs:rep_outputs (fresh w.W.rep ctx));
  let timed = ref [] and loops = ref [ reference_s () ] and tries = ref 0 in
  let min_reps = match ctx.W.size with W.Full -> w.W.reps | W.Smoke -> 1 in
  let t0 = Unix.gettimeofday () in
  while !tries < min_reps || Unix.gettimeofday () -. t0 < seconds do
    incr tries;
    Option.iter
      (fun r -> timed := r :: !timed)
      (attempt (Printf.sprintf "timed rep %d" !tries) ~outputs:rep_outputs (fresh w.W.rep ctx));
    loops := reference_s () :: !loops
  done;
  let scale = nominal_reference_s /. Stats.median !loops in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let reps = List.rev !timed in
  let per_rep f = Stats.summarize (List.map f reps) in
  let end_to_end =
    [
      ("work_per_s", per_rep (fun r -> r.W.work /. (r.W.run_s *. scale)));
      ("setup_s", per_rep (fun r -> r.W.setup_s *. scale));
      ("peak_heap_mb", Stats.single peak_heap_mb);
    ]
  in
  let raw =
    [
      ("raw_work_per_s", per_rep (fun r -> r.W.work /. r.W.run_s));
      ("raw_setup_s", per_rep (fun r -> r.W.setup_s));
      ("reference_ms", Stats.summarize (List.map (fun s -> s *. 1e3) !loops));
    ]
  in
  let per_layer =
    if not layers then []
    else begin
      Tracer.start ~rep:(!tries + 1);
      let traced =
        attempt "traced rep" ~outputs:(fun t -> Some t.W.t_outputs) (fresh w.W.traced_rep ctx)
      in
      let probes =
        attempt "layer probes" (fun () -> W.of_config_layers ctx.W.size @ W.copy_layers ctx)
      in
      Tracer.stop ();
      Tracer.write_chrome (Filename.concat ctx.W.out ("trace-" ^ w.W.name ^ ".json"));
      let events = match reps with r :: _ -> r.W.events | [] -> 0 in
      let per_event f r = if r.W.events = 0 then 0.0 else f r /. float_of_int r.W.events in
      let measured =
        [
          ("engine.events", Stats.single (float_of_int events));
          ("engine.events_per_s",
           per_rep (fun r -> float_of_int r.W.events /. (r.W.run_s *. scale)));
          ("engine.alloc_bytes_per_event", per_rep (per_event (fun r -> r.W.alloc_bytes)));
        ]
        @ (match traced with
          | Some t ->
              let untraced = Stats.median (List.map (fun r -> r.W.run_s) reps) in
              ("obs.trace_overhead_ratio", Stats.single (t.W.t_run_s /. untraced)) :: t.W.layers
          | None -> [])
        @ Option.value probes ~default:[]
      in
      List.map
        (fun (name, _) ->
          (name, Option.value (List.assoc_opt name measured) ~default:(Stats.single 0.0)))
        Catalog.per_layer
    end
  in
  let failed_ratio =
    { (Stats.single (float_of_int !failed /. float_of_int !attempted)) with Stats.n = !attempted }
  in
  let metrics = end_to_end @ [ (fst Catalog.failed_ratio, failed_ratio) ] @ raw @ per_layer in
  List.iter (print_metric w.W.name) metrics;
  let digest = Option.value !expected ~default:"" in
  Printf.printf "digest %s %s\n%!" w.W.name digest;
  { attempted = !attempted; failed = !failed; digest; metrics }

let to_json (r : result) =
  let metric (name, (s : Stats.summary)) =
    ( name,
      Json.obj
        [
          ("value", Json.num s.Stats.value);
          ("q1", Json.num s.Stats.q1);
          ("q3", Json.num s.Stats.q3);
          ("n", string_of_int s.Stats.n);
          ("unit", Json.str (Catalog.unit_of name));
        ] )
  in
  Json.obj
    [
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("digest", Json.str r.digest);
      ("metrics", Json.obj (List.map metric r.metrics));
    ]
