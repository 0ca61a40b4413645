(* svt_sim: command-line front end to the SVt simulator.

   One campaign point (any registry workload, any arch, mode and level)
   runs through `run`; `trace` and `profile` run the same point with the
   tracing sinks or the self-profiler attached. For example:

       svt_sim run -w cpuid --mode hw-svt --level l2
       svt_sim run -w rr --arch arm --mode sw-svt
       svt_sim run -w rr --mode sw-svt --seed 7 --fault drop-ring:0.05
       svt_sim trace -w etc --mode sw-svt --out etc.json
       svt_sim sweep --axis mode=baseline,sw-svt,hw-svt --axis level=l1,l2
       svt_sim paper fig6 --arch arm
       svt_sim blocked-demo

   `paper` regenerates the paper's tables and figures (bin/paper.ml). *)

open Cmdliner
module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Mode = Svt_core.Mode
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Spec = Svt_campaign.Spec
module Runner = Svt_campaign.Runner

(* ---- common arguments ---- *)

(* Every CLI value parses through its type's own name table (the one the
   campaign axis grammar uses), so "sw-svt-mwait" or
   "sw-svt-polling@cross-numa" mean the same thing everywhere. *)
let conv_of_result of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (of_string s)),
      fun ppf v -> Fmt.string ppf (to_string v) )

(* A count that must be at least 1. Zero or less is a usage error (exit
   124) here, rather than an exception or a NaN row deeper in. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

let mode_conv = conv_of_result Mode.of_string Mode.to_string
let level_conv = conv_of_result Spec.level_of_string Spec.level_to_string
let arch_conv =
  conv_of_result Svt_arch.Backend.of_string Svt_arch.Backend.to_string

let mode_arg =
  Arg.(value & opt mode_conv Mode.Baseline
       & info [ "m"; "mode" ] ~docv:"MODE"
           ~doc:
             "Run mode: baseline, sw-svt, sw-svt-polling, sw-svt-mutex, \
              hw-svt, hw-full-nesting, ooh (Out-of-Hypervisor delegation).")

let level_arg =
  Arg.(value & opt level_conv System.L2_nested
       & info [ "l"; "level" ] ~docv:"LEVEL"
           ~doc:"Where the guest under test runs: l0 (native), l1, l2 (nested).")

let arch_arg =
  Arg.(value & opt arch_conv Svt_arch.Backend.X86
       & info [ "arch" ] ~docv:"ARCH"
           ~doc:"Architecture backend: x86 (VMX, cached-VMCS nested state) \
                 or arm (NV/VHE, memory-backed system-register image; no \
                 shadow VMCS and no hw-svt mode).")

(* The one spelling of a single campaign point on the command line: run,
   trace and profile all build their Spec.point from this term. The
   workload is an enum over [workloads], so an unknown name is a usage
   error (exit 124) rather than an exception. *)
let point_term workloads =
  let workload =
    Arg.(value & opt (enum (List.map (fun w -> (w, w)) workloads)) "cpuid"
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:("Campaign registry workload: " ^ doc_alts workloads ^ "."))
  in
  let vcpus =
    Arg.(value & opt pos_int 1 & info [ "vcpus" ] ~docv:"N" ~doc:"Guest vCPUs.")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Replication index, folded into the run id (and so into \
                   every PRNG stream of the run, fault streams included).")
  in
  let point arch mode level workload vcpus seed =
    Spec.point ~arch ~level ~workload ~vcpus ~seed mode
  in
  Term.(const point $ arch_arg $ mode_arg $ level_arg $ workload $ vcpus
        $ seed)

(* A point that spends its event fuel is a timeout, as in a sweep row:
   print the fuel counters and exit 1. *)
let exit_on_timeout f =
  try f ()
  with Simulator.Budget_exhausted { events; now; max_events } ->
    Printf.printf "timeout %s\n"
      (String.concat " "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%.15g" k v)
            (Runner.fuel_metrics ~events ~now ~max_events)));
    exit 1

(* ---- trace export ---- *)

let trace_cmd =
  let module Recorder = Svt_obs.Recorder in
  let module Timeline = Svt_obs.Timeline in
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "out" ] ~docv:"PATH"
             ~doc:"Chrome trace-event JSON output (load in Perfetto or \
                   chrome://tracing).")
  in
  let validate_arg =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Re-parse the exported JSON and require at least one span \
                   of each kind the run should produce; exit 1 on failure.")
  in
  (* The span kinds a run at this level must produce (checked by
     --validate). *)
  let required_kinds level =
    match level with
    | System.L2_nested -> [ "vm-exit"; "svt-resume"; "vmcs-transform" ]
    | System.L1_leaf -> [ "vm-exit" ]
    | System.L0_native -> []
  in
  let validate_file level path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match Svt_campaign.Ledger.parse_json s with
    | exception Svt_campaign.Ledger.Parse_error e ->
        Printf.eprintf "trace: %s is not valid JSON: %s\n" path e;
        exit 1
    | Svt_campaign.Ledger.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Svt_campaign.Ledger.Arr events) ->
            let names = Hashtbl.create 16 in
            List.iter
              (function
                | Svt_campaign.Ledger.Obj ev -> (
                    match
                      (List.assoc_opt "ph" ev, List.assoc_opt "name" ev)
                    with
                    | Some (Svt_campaign.Ledger.Str "X"),
                      Some (Svt_campaign.Ledger.Str name) ->
                        Hashtbl.replace names name ()
                    | _ -> ())
                | _ -> ())
              events;
            let missing =
              List.filter
                (fun k -> not (Hashtbl.mem names k))
                (required_kinds level)
            in
            if missing <> [] then begin
              Printf.eprintf "trace: %s lacks span kinds: %s\n" path
                (String.concat ", " missing);
              exit 1
            end;
            Printf.printf "validated: %d events, all required kinds present\n"
              (List.length events)
        | _ ->
            Printf.eprintf "trace: %s has no traceEvents array\n" path;
            exit 1)
    | _ ->
        Printf.eprintf "trace: %s is not a JSON object\n" path;
        exit 1
  in
  let run (p : Spec.point) out validate =
    let sys =
      Runner.make_system ~max_sim_events:Runner.default_max_sim_events p
    in
    let tl = Recorder.enable_timeline (System.obs sys) in
    let ct = Recorder.enable_chrome (System.obs sys) in
    let metrics = exit_on_timeout (fun () -> Runner.workload_metrics p sys) in
    Svt_obs.Chrome_trace.write_file ct out;
    Printf.printf "%s at %s under %s: %d spans -> %s\n" p.Spec.workload
      (System.level_name p.Spec.level) (Mode.name p.Spec.mode)
      (Timeline.total_spans tl) out;
    if Svt_obs.Chrome_trace.dropped ct > 0 then
      Printf.printf "  (%d spans beyond the export limit were dropped)\n"
        (Svt_obs.Chrome_trace.dropped ct);
    Format.printf "%a@?" Timeline.pp tl;
    print_endline "workload metrics:";
    List.iter (fun (k, v) -> Printf.printf "  %-24s %g\n" k v) metrics;
    if validate then validate_file p.Spec.level out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload with the structured-tracing sinks installed and \
             export a Chrome trace-event JSON timeline."
       ~man:
         [
           `S Manpage.s_examples;
           `P "svt_sim trace --mode baseline --level l2 --out trace.json; \
               then open the file in https://ui.perfetto.dev";
         ])
    Term.(const run $ point_term Spec.stack_workload_names $ out_arg
          $ validate_arg)

(* ---- self-profiling ---- *)

let profile_cmd =
  let module Profiler = Svt_obs.Profiler in
  let module Probe = Svt_obs.Probe in
  let format_arg =
    Arg.(value & opt (enum [ ("folded", `Folded); ("table", `Table);
                             ("json", `Json) ])
           `Folded
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: folded (flamegraph.pl / inferno / \
                   speedscope collapsed stacks), table (flat hot-path \
                   table), or json (summary + full aggregate tree).")
  in
  let metric_arg =
    Arg.(value & opt (enum [ ("time", Profiler.Mtime); ("alloc", Profiler.Malloc) ])
           Profiler.Mtime
         & info [ "metric" ] ~docv:"METRIC"
             ~doc:"Folded-stacks value: time (exclusive nanoseconds) or \
                   alloc (exclusive allocated bytes).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"PATH"
             ~doc:"Write the formatted output to PATH instead of stdout \
                   (summary then goes to stdout).")
  in
  let validate_arg =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Check the profile invariants: folded output non-empty \
                   and parseable, and the exclusive-time totals sum to the \
                   measured wall time within 5%; exit 1 on failure.")
  in
  (* The folded format is consumed by external tools, so --validate
     re-parses what we emit: every line must be "frame[;frame]* <int>". *)
  let validate_folded prof =
    let folded = Profiler.folded prof in
    if String.trim folded = "" then begin
      prerr_endline "profile: folded output is empty";
      exit 1
    end;
    List.iteri
      (fun i line ->
        if String.trim line <> "" then
          match String.rindex_opt line ' ' with
          | None ->
              Printf.eprintf "profile: folded line %d has no value: %S\n"
                (i + 1) line;
              exit 1
          | Some sp -> (
              let path = String.sub line 0 sp in
              let value =
                String.sub line (sp + 1) (String.length line - sp - 1)
              in
              match int_of_string_opt value with
              | None | Some _ when path = "" ->
                  Printf.eprintf "profile: folded line %d is malformed: %S\n"
                    (i + 1) line;
                  exit 1
              | None ->
                  Printf.eprintf "profile: folded line %d value %S is not \
                                  an integer\n"
                    (i + 1) value;
                  exit 1
              | Some _ -> ()))
      (String.split_on_char '\n' folded);
    let wall = Profiler.wall_s prof in
    let excl = Profiler.exclusive_total_s prof in
    let drift = if wall > 0.0 then abs_float (excl -. wall) /. wall else 0.0 in
    if drift > 0.05 then begin
      Printf.eprintf
        "profile: exclusive totals %.6f s drift %.1f%% from wall %.6f s\n"
        excl (100.0 *. drift) wall;
      exit 1
    end;
    Printf.printf
      "validated: %d folded paths, exclusive sum within %.2f%% of wall\n"
      (List.length
         (List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' folded)))
      (100.0 *. drift)
  in
  let run (p : Spec.point) format metric out validate =
    let sys =
      Runner.make_system ~max_sim_events:Runner.default_max_sim_events p
    in
    let prof = Profiler.create () in
    Probe.subscribe (System.probe sys) (Profiler.sink prof);
    Simulator.set_observer (System.sim sys) (Some (Profiler.observer prof));
    Profiler.start prof;
    let metrics = exit_on_timeout (fun () -> Runner.workload_metrics p sys) in
    Profiler.stop prof;
    let q = Simulator.queue_stats (System.sim sys) in
    let in_place = Simulator.delays_in_place (System.sim sys) in
    let extra =
      [
        ("queue_adds", float_of_int q.Svt_engine.Event_queue.adds);
        ("queue_pops", float_of_int q.Svt_engine.Event_queue.pops);
        ("queue_cancels", float_of_int q.Svt_engine.Event_queue.cancels);
        ("queue_peak_live", float_of_int q.Svt_engine.Event_queue.peak_live);
        ("delays_in_place", float_of_int in_place);
      ]
      @ metrics
    in
    let output =
      match format with
      | `Folded -> Profiler.folded ~metric prof
      | `Table -> Fmt.str "%a" Profiler.pp_table prof
      | `Json -> Profiler.to_json ~extra prof
    in
    let summary ppf () =
      Fmt.pf ppf
        "%s at %s under %s: %.3f ms wall, %d spans, %d events, %.0f KB \
         allocated (queue: %d adds, %d pops, peak %d live; %d delays in \
         place)"
        p.Spec.workload (System.level_name p.Spec.level) (Mode.name p.Spec.mode)
        (1e3 *. Profiler.wall_s prof)
        (Profiler.spans prof) (Profiler.events prof)
        (Profiler.allocated_bytes prof /. 1024.0)
        q.Svt_engine.Event_queue.adds q.Svt_engine.Event_queue.pops
        q.Svt_engine.Event_queue.peak_live in_place
    in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc output;
        close_out oc;
        Printf.printf "%s\nprofile -> %s\n" (Fmt.str "%a" summary ()) path
    | None ->
        print_string output;
        if output <> "" && output.[String.length output - 1] <> '\n' then
          print_newline ();
        Printf.eprintf "%s\n" (Fmt.str "%a" summary ()));
    if validate then validate_folded prof
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a workload with the self-profiler attached and report \
             where host time and allocation go, as folded stacks, a flat \
             table, or JSON."
       ~man:
         [
           `S Manpage.s_examples;
           `P "svt_sim profile --mode sw-svt --level l2 -o profile.folded; \
               then: flamegraph.pl profile.folded > profile.svg (or load \
               the file in https://www.speedscope.app).";
           `P "svt_sim profile --format table | head -30 shows the hot \
               aggregate paths directly.";
         ])
    Term.(const run $ point_term Spec.stack_workload_names $ format_arg
          $ metric_arg $ out_arg $ validate_arg)

(* ---- campaign sweeps ---- *)

let sweep_cmd =
  let module Campaign = Svt_campaign.Campaign in
  let axis_conv =
    let parse s =
      match Spec.parse_axis s with Ok a -> Ok a | Error e -> Error (`Msg e)
    in
    Arg.conv
      (parse, fun ppf (k, vs) -> Fmt.pf ppf "%s=%s" k (String.concat "," vs))
  in
  let axes =
    Arg.(value & opt_all axis_conv []
         & info [ "a"; "axis" ] ~docv:"KEY=V1,V2,..."
             ~doc:"One campaign axis (repeatable): arch, mode, level, \
                   workload, vcpus or seed. The sweep is the cartesian \
                   product of all axes; omitted axes default to arch=x86, \
                   mode=baseline, level=l2, workload=cpuid, vcpus=1, \
                   seed=0.")
  in
  let jobs =
    Arg.(value & opt pos_int (Svt_campaign.Pool.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains. 1 forces the sequential, domain-free path.")
  in
  let ledger =
    Arg.(value & opt string "sweep.jsonl"
         & info [ "ledger" ] ~docv:"PATH"
             ~doc:"Journaled JSONL run ledger (one CRC'd object per run).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Recover the ledger first (tolerating a torn trailing \
                   line) and skip runs already recorded ok; every other \
                   run re-executes.")
  in
  let max_rows =
    Arg.(value & opt (some pos_int) None
         & info [ "max-rows" ] ~docv:"N"
             ~doc:"Stop after N rows complete (exit 3). Simulates a crash \
                   for resume testing.")
  in
  let max_sim_events =
    Arg.(value & opt pos_int Runner.default_max_sim_events
         & info [ "max-sim-events" ] ~docv:"N"
             ~doc:"Deterministic fuel budget: abort a run as status timeout \
                   after N simulator events.")
  in
  let deterministic =
    Arg.(value & flag
         & info [ "deterministic" ]
             ~doc:"Pin the per-row wall_s field to 0 so two ledgers of the \
                   same campaign are byte-identical.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No stderr progress line.")
  in
  let run axes jobs ledger resume max_rows max_sim_events deterministic
      quiet =
    match Spec.of_axes axes with
    | Error e ->
        Printf.eprintf "sweep: %s\n" e;
        exit 2
    | Ok spec ->
        let o =
          Campaign.execute ~jobs ?max_rows ~resume ~deterministic
            ~progress:(not quiet) ~ledger
            ~run:(fun p -> Runner.exec ~max_sim_events p)
            spec
        in
        Svt_stats.Table.print (Campaign.summary_table o);
        Printf.printf
          "\n%d runs: %d ok, %d failed, %d timeout%s%s in %.2f s (jobs=%d) \
           -> %s\n"
          (List.length o.Campaign.results)
          o.Campaign.ok o.Campaign.failed o.Campaign.timeout
          (if o.Campaign.reused > 0 then
             Printf.sprintf ", %d reused" o.Campaign.reused
           else "")
          (if o.Campaign.skipped > 0 then
             Printf.sprintf ", %d skipped" o.Campaign.skipped
           else "")
          o.Campaign.wall_s jobs ledger;
        if o.Campaign.interrupted then
          Printf.printf
            "campaign interrupted; finish it with: svt_sim sweep --resume \
             --ledger %s ...\n"
            ledger;
        let entries =
          List.map Svt_campaign.Ledger.entry_of_result o.Campaign.results
        in
        (match Svt_report.Paper.speedup_rows_of_ledger entries with
        | [] -> ()
        | rows ->
            print_endline "\nmeasured-vs-paper speedups derivable from this sweep:";
            Svt_report.Compare.print rows);
        match Campaign.exit_code o with 0 -> () | c -> exit c
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a parallel experiment campaign over the design space and \
             record a crash-safe JSONL ledger."
       ~man:
         [
           `S Manpage.s_examples;
           `P "svt_sim sweep --axis mode=baseline,sw-svt,hw-svt --axis \
               level=l1,l2 --jobs 4";
           `P "Interrupted (or killed) campaigns resume without re-running \
               completed work: svt_sim sweep --resume --ledger sweep.jsonl \
               [same axes]. Exit status: 0 all ok, 1 some run failed or \
               timed out, 2 usage error, 3 interrupted by --max-rows.";
         ])
    Term.(const run $ axes $ jobs $ ledger $ resume $ max_rows
          $ max_sim_events $ deterministic $ quiet)

let sweep_diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.jsonl")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.jsonl")
  in
  let run old_path new_path =
    match
      ( Svt_campaign.Ledger.load old_path,
        Svt_campaign.Ledger.load new_path )
    with
    | Error e, _ | _, Error e ->
        Printf.eprintf "sweep-diff: %s\n" e;
        exit 2
    | Ok old_entries, Ok new_entries ->
        let changed = Svt_report.Compare.diff_ledgers old_entries new_entries in
        if changed = 0 then
          print_endline "no per-run metric differences between the ledgers."
        else exit 1
  in
  Cmd.v
    (Cmd.info "sweep-diff"
       ~doc:"Diff two campaign ledgers run_id by run_id (exit 1 on drift).")
    Term.(const run $ old_arg $ new_arg)

(* ---- host consolidation (lib/sched) ---- *)

let sched_cmd =
  let module Topology = Svt_sched.Topology in
  let module Policy = Svt_sched.Policy in
  let module Host = Svt_sched.Host in
  let cores_arg =
    Arg.(value & opt pos_int 4 & info [ "cores" ] ~docv:"N" ~doc:"Host cores.")
  in
  let smt_arg =
    Arg.(value & opt pos_int 2
         & info [ "smt" ] ~docv:"N" ~doc:"Hardware threads per core.")
  in
  let tenants_arg =
    Arg.(value & opt pos_int 8
         & info [ "tenants" ] ~docv:"N" ~doc:"Co-located guest stacks.")
  in
  let vcpus_arg =
    Arg.(value & opt pos_int 1
         & info [ "vcpus" ] ~docv:"N" ~doc:"vCPUs per tenant.")
  in
  let horizon_ms =
    Arg.(value & opt int 20
         & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Host run length (virtual ms).")
  in
  let quantum_us =
    Arg.(value & opt pos_int 50
         & info [ "quantum-us" ] ~docv:"US" ~doc:"Scheduling quantum.")
  in
  let config_conv =
    (* "mode" or "mode/policy" *)
    let parse s =
      let mode_s, policy_s =
        match String.index_opt s '/' with
        | Some i ->
            ( String.sub s 0 i,
              Some (String.sub s (i + 1) (String.length s - i - 1)) )
        | None -> (s, None)
      in
      match Mode.of_string mode_s with
      | Error e -> Error (`Msg e)
      | Ok mode -> (
          match policy_s with
          | None -> Ok (mode, Policy.default)
          | Some ps -> (
              match Policy.of_string ps with
              | Ok p -> Ok (mode, p)
              | Error e -> Error (`Msg e)))
    in
    Arg.conv (parse, fun ppf (m, p) -> Fmt.string ppf (Policy.label m p))
  in
  let configs_arg =
    Arg.(value & opt_all config_conv []
         & info [ "c"; "config" ] ~docv:"MODE[/POLICY]"
             ~doc:"One host configuration to compare (repeatable): a run \
                   mode, optionally with an SVt-thread policy \
                   (dedicated-sibling, shared-pool:K, on-demand-donation). \
                   Default: the whole-host consolidation comparison \
                   baseline, sw-svt/dedicated-sibling, \
                   sw-svt/on-demand-donation, sw-svt/shared-pool:2, hw-svt, \
                   ooh.")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "v"; "per-tenant" ] ~doc:"Print the per-tenant table of \
                                            each configuration.")
  in
  let run arch cores smt tenants vcpus horizon_ms quantum_us configs verbose =
    let configs =
      if configs <> [] then configs
      else
        [
          (Mode.Baseline, Policy.default);
          (Mode.sw_svt_default, Policy.Dedicated_sibling);
          (Mode.sw_svt_default, Policy.On_demand_donation);
          (Mode.sw_svt_default, Policy.Shared_pool { threads = 2 });
          (Mode.Hw_svt, Policy.default);
          (Mode.Ooh, Policy.default);
        ]
    in
    let horizon = Time.of_ms horizon_ms in
    Printf.printf
      "consolidating %d tenants x %d vCPU(s) on %d cores x %d SMT \
       (quantum %d us, horizon %d ms)\n\n"
      tenants vcpus cores smt quantum_us horizon_ms;
    Printf.printf "%-34s %9s %12s %11s %10s %9s %9s\n" "configuration"
      "agg kops" "per-exit(us)" "occupancy" "steal(ms)" "wake(us)" "queue(us)";
    let failures = ref 0 in
    List.iter
      (fun (mode, policy) ->
        let label = Policy.label mode policy in
        let topology =
          Topology.create ~sockets:1 ~cores_per_socket:cores
            ~smt_per_core:smt ()
        in
        let host =
          Host.create ~quantum:(Time.of_us quantum_us) ~topology ()
        in
        let rec admit i =
          if i >= tenants then Ok ()
          else
            match
              Host.add_tenant host
                (Host.tenant_spec ~arch ~policy ~n_vcpus:vcpus ~seed:i mode)
            with
            | Ok () -> admit (i + 1)
            | Error errs -> Error errs
        in
        match admit 0 with
        | Error errs ->
            incr failures;
            Printf.printf "%-34s rejected: %s\n" label
              (String.concat "; "
                 (List.map (Fmt.str "%a" System.Config.pp_error) errs))
        | Ok () ->
            Host.run host ~horizon;
            let r = Host.report host in
            let mean_exit, steal, wake, queue =
              List.fold_left
                (fun (e, s, w, q) tr ->
                  ( e +. tr.Host.per_exit_us,
                    s +. tr.Host.steal_ms,
                    w +. tr.Host.wake_penalty_us,
                    q +. tr.Host.queue_penalty_us ))
                (0.0, 0.0, 0.0, 0.0) r.Host.tenant_reports
            in
            let n = float_of_int (List.length r.Host.tenant_reports) in
            Printf.printf "%-34s %9.1f %12.2f %10.1f%% %10.2f %9.1f %9.1f\n"
              label r.Host.aggregate_kops (mean_exit /. n)
              (100.0 *. r.Host.occupancy) steal wake queue;
            if verbose then
              Format.printf "@[<v>%a@]@." Host.pp_report r)
      configs;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Consolidate many nested guests on one SMT host and compare \
             SVt-thread placement policies (whole-host throughput vs \
             per-exit latency trade-off)."
       ~man:
         [
           `S Manpage.s_examples;
           `P "svt_sim sched --cores 4 --tenants 8; svt_sim sched -c \
               baseline -c sw-svt/shared-pool:4 --tenants 16 -v; svt_sim \
               sched --arch arm -c baseline -c sw-svt";
         ])
    Term.(const run $ arch_arg $ cores_arg $ smt_arg $ tenants_arg
          $ vcpus_arg $ horizon_ms $ quantum_us $ configs_arg $ verbose_arg)

(* ---- fault-tolerant fleet (lib/cluster) ---- *)

let cluster_cmd =
  let module Policy = Svt_sched.Policy in
  let module Host = Svt_sched.Host in
  let module Cluster = Svt_cluster.Cluster in
  let module Admission = Svt_cluster.Admission in
  let hosts_arg =
    Arg.(value & opt int 4 & info [ "hosts" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let cores_arg =
    Arg.(value & opt pos_int 4 & info [ "cores" ] ~docv:"N" ~doc:"Cores per host.")
  in
  let smt_arg =
    Arg.(value & opt pos_int 2
         & info [ "smt" ] ~docv:"N" ~doc:"Hardware threads per core.")
  in
  let tenants_arg =
    Arg.(value & opt int 10
         & info [ "tenants" ] ~docv:"N" ~doc:"Tenants submitted for admission.")
  in
  let vcpus_arg =
    Arg.(value & opt pos_int 1
         & info [ "vcpus" ] ~docv:"N" ~doc:"vCPUs per tenant.")
  in
  let mode_arg =
    Arg.(value & opt mode_conv Mode.sw_svt_default
         & info [ "mode" ] ~docv:"MODE" ~doc:"Tenant run mode.")
  in
  let policy_arg =
    let policy_conv = conv_of_result Policy.of_string Policy.name in
    Arg.(value & opt policy_conv Policy.Dedicated_sibling
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Requested SVt-thread policy (the controller may degrade \
                   it under pressure).")
  in
  let fault_arg =
    Arg.(value & opt string ""
         & info [ "fault" ] ~docv:"PLAN"
             ~doc:"Cluster fault plan, e.g. host-crash:0.02,host-flap:0.05.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Fleet fault seed.")
  in
  let horizon_ms =
    Arg.(value & opt int 20
         & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Fleet run length (virtual ms).")
  in
  let strategy_arg =
    let strategy_conv =
      conv_of_result Admission.strategy_of_string Admission.strategy_name
    in
    Arg.(value & opt strategy_conv Admission.Bin_pack
         & info [ "strategy" ] ~docv:"bin-pack|spread" ~doc:"Placement strategy.")
  in
  let overcommit_arg =
    Arg.(value & opt float 1.5
         & info [ "overcommit" ] ~docv:"X"
             ~doc:"Committed gang threads per host may reach X times its \
                   hardware threads.")
  in
  let quota_arg =
    Arg.(value & opt int 8
         & info [ "quota" ] ~docv:"N" ~doc:"Largest admissible tenant (vCPUs).")
  in
  let run arch hosts cores smt tenants vcpus mode policy fault seed
      horizon_ms strategy overcommit quota =
    let plan =
      match Svt_fault.Cluster_plan.of_string fault with
      | Ok p -> p
      | Error e ->
          Printf.eprintf "cluster: %s\n" e;
          exit 2
    in
    let cfg =
      {
        Cluster.default_config with
        n_hosts = hosts;
        sockets = 1;
        cores_per_socket = cores;
        smt_per_core = smt;
        plan;
        seed = Int64.of_int seed;
        admission = { Admission.strategy; overcommit; quota_vcpus = quota };
      }
    in
    let cluster =
      match Cluster.validate_config cfg with
      | Ok cfg -> Cluster.create cfg
      | Error e ->
          Printf.eprintf "cluster: %s\n" e;
          exit 2
    in
    for i = 0 to tenants - 1 do
      ignore
        (Cluster.submit cluster
           (Host.tenant_spec ~arch
              ~name:(Printf.sprintf "t%d" i)
              ~policy ~n_vcpus:vcpus ~seed:i mode))
    done;
    Cluster.run cluster ~horizon:(Time.of_ms horizon_ms);
    let r = Cluster.report cluster in
    print_endline (Fmt.str "@[<v>%a@]" Cluster.pp_report r);
    if not r.Cluster.r_conserved then begin
      Printf.eprintf "cluster: conservation violated (tenant lost)\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a fleet of SMT consolidation hosts behind the admission \
             controller, with cluster-scope faults (host crash, degrade, \
             flap), tenant evacuation and capped-backoff re-admission."
       ~man:
         [
           `S Manpage.s_examples;
           `P "svt_sim cluster --hosts 4 --tenants 10 --fault \
               host-crash:0.02; svt_sim cluster --strategy spread \
               --overcommit 1.0 --fault host-flap:0.08 --seed 7";
         ])
    Term.(const run $ arch_arg $ hosts_arg $ cores_arg $ smt_arg
          $ tenants_arg $ vcpus_arg $ mode_arg $ policy_arg $ fault_arg
          $ seed_arg $ horizon_ms $ strategy_arg $ overcommit_arg
          $ quota_arg)

(* ---- demos ---- *)

(* Reproduce the §5.3 scenario: an interrupt for L1 arrives while L0₀
   waits on the SVt-thread; without SVT_BLOCKED this deadlocks, with it
   the event is serviced mid-episode. *)
let blocked_demo_cmd =
  let run () =
    let sys =
      System.of_config
        (System.Config.make ~mode:Mode.sw_svt_default ~level:System.L2_nested ())
    in
    let vcpu = System.vcpu0 sys in
    let serviced_at = ref Time.zero in
    Vcpu.spawn_program vcpu (fun v ->
        ignore (Guest.cpuid v ~leaf:1);
        let sim = Svt_engine.Simulator.Proc.sim () in
        ignore
          (Svt_engine.Simulator.schedule sim ~after:(Time.of_us 3) (fun () ->
               Printf.printf "[%s] IPI for L1 arrives while L0 waits on the SVt-thread\n"
                 (Time.to_string (Svt_engine.Simulator.now sim));
               Vcpu.enqueue_host_event v ~vector:0x31 (fun () ->
                   serviced_at := Svt_engine.Simulator.Proc.now ())));
        ignore (Guest.cpuid v ~leaf:1);
        Printf.printf "[%s] episode complete, no deadlock\n"
          (Time.to_string (Svt_engine.Simulator.Proc.now ())));
    System.run sys;
    Printf.printf "[%s] interrupt serviced through SVT_BLOCKED (%d injection)\n"
      (Time.to_string !serviced_at)
      (Svt_core.Nested.blocked_injections (System.nested_path sys 0))
  in
  Cmd.v
    (Cmd.info "blocked-demo"
       ~doc:"Demonstrate the SVT_BLOCKED deadlock-avoidance protocol (section 5.3).")
    Term.(const run $ const ())

(* ---- coverage-guided fuzzing (lib/fuzz) ---- *)

let fuzz_cmd =
  let module Fuzz = Svt_fuzz.Fuzz in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Master campaign seed. Same seed and batch give a \
                   byte-identical ledger, whatever --jobs says.")
  in
  let batch_arg =
    Arg.(value & opt pos_int 64
         & info [ "batch" ] ~docv:"N" ~doc:"Inputs to execute.")
  in
  let jobs_arg =
    Arg.(value & opt pos_int 1
         & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains executing a round.")
  in
  let ledger_arg =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"PATH"
             ~doc:"Journaled JSONL corpus ledger (kept inputs, shrunk \
                   violations, per-round progress barriers).")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Salvage the ledger down to its last complete round, \
                   rebuild the corpus from the kept rows, and continue.")
  in
  let max_rounds_arg =
    Arg.(value & opt (some pos_int) None
         & info [ "max-rounds" ] ~docv:"N"
             ~doc:"Stop after N rounds (exit 3). Simulates a crash for \
                   resume testing.")
  in
  let budget_arg =
    Arg.(value & opt pos_int Fuzz.default_budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"Per-mode simulator event budget; exhaustion is reported \
                   as a violation.")
  in
  let allow_hlt_arg =
    Arg.(value & flag
         & info [ "allow-hlt" ]
             ~doc:"Let the generator emit the bare HLT op (a guaranteed \
                   hang the deadlock detector must catch).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No stderr progress lines.")
  in
  let run seed batch jobs ledger resume max_rounds budget allow_hlt quiet =
    let gen_cfg = { Svt_fuzz.Gen.default with Svt_fuzz.Gen.allow_hlt } in
    let log = if quiet then fun _ -> () else prerr_endline in
    let stats =
      Fuzz.campaign ~gen_cfg ~budget ~jobs ?ledger ~resume ?max_rounds ~log
        ~seed:(Int64.of_int seed) ~batch ()
    in
    (* the summary is part of the deterministic surface: no wall clock *)
    Printf.printf
      "fuzz: execs=%d kept=%d cov_bits=%d violations=%d events=%d rounds=%d\n"
      stats.Fuzz.execs stats.Fuzz.kept stats.Fuzz.cov_bits
      stats.Fuzz.violations stats.Fuzz.events stats.Fuzz.rounds;
    if stats.Fuzz.interrupted then exit 3
    else if stats.Fuzz.violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided fuzzing of the nested virtualization stack."
       ~man:
         [
           `S Manpage.s_description;
           `P "Generates seeded random guest programs (with vmcs12 pokes \
               and fault plans), runs each through a full stack under \
               baseline, SW SVt, HW SVt and OoH, and keeps inputs that light \
               new bits in the handler-path coverage map. Violations \
               (crashes, budget exhaustion, deadlocks, mode or replay \
               divergence) are shrunk to a minimal reproducer and \
               recorded in the ledger. Exit status: 0 clean, 1 violations \
               found, 3 interrupted by --max-rounds.";
           `S Manpage.s_examples;
           `P "svt_sim fuzz --seed 7 --batch 64 --ledger fuzz.jsonl; rerun \
               with --jobs 2 and the ledger is byte-identical.";
         ])
    Term.(const run $ seed_arg $ batch_arg $ jobs_arg $ ledger_arg
          $ resume_arg $ max_rounds_arg $ budget_arg $ allow_hlt_arg
          $ quiet_arg)

(* ---- the paper's tables and figures ---- *)

let paper_cmd =
  let sections =
    Arg.(value & pos_all (enum (List.map (fun (n, _) -> (n, n)) Paper.sections)) []
         & info [] ~docv:"SECTION"
             ~doc:("Sections to run, in table order (default: all): "
                   ^ doc_alts (List.map fst Paper.sections) ^ "."))
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Shorter runs for fig7, fig8, fig9 and fig10.")
  in
  let jobs =
    Arg.(value & opt pos_int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the fig7 and fig10 run matrices; the \
                   results do not depend on it.")
  in
  let run sections quick jobs arch = Paper.run { Paper.quick; jobs; arch } sections in
  Cmd.v
    (Cmd.info "paper"
       ~doc:"Reproduce the paper's tables and figures (section 6), measured \
             beside the published values. --arch selects the fig6 backend.")
    Term.(const run $ sections $ quick $ jobs $ arch_arg)

(* ---- run one campaign point ---- *)

let run_cmd =
  let module Ledger = Svt_campaign.Ledger in
  let module Plan = Svt_fault.Plan in
  let fault_arg =
    let plan_conv =
      (* canonicalised, so equivalent spellings share one run id *)
      conv_of_result
        (fun s -> Result.map Plan.to_string (Plan.of_string s))
        Fun.id
    in
    Arg.(value & opt plan_conv ""
         & info [ "fault" ] ~docv:"PLAN"
             ~doc:"Stack fault plan: comma-separated kind:rate pairs, e.g. \
                   drop-ring:0.01,corrupt-vmcs12:0.02. Kinds: drop-ring, \
                   dup-ring, delay-ring, corrupt-ring, corrupt-vmcs12, \
                   drop-irq, spurious-irq, stall-blocked. The fault streams \
                   derive from the run id, so the same point and plan replay \
                   the same faults; the fault.* metrics report the outcomes.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"PATH"
             ~doc:"Append the run's ledger row (JSONL) to PATH. wall_s is \
                   pinned to 0, so two identical invocations write \
                   byte-identical rows.")
  in
  let run p fault out =
    let p = { p with Spec.fault } in
    let metrics = exit_on_timeout (fun () -> Runner.exec p) in
    Printf.printf "key    %s\n" (Spec.canonical_key p);
    Printf.printf "run_id %s\n" (Spec.run_id p);
    List.iter
      (fun (k, v) -> Printf.printf "%-32s %.6g\n" k v)
      (List.sort (fun (a, _) (b, _) -> compare a b) metrics);
    Option.iter
      (fun path ->
        Ledger.write path
          [
            {
              Ledger.run_id = Spec.run_id p;
              point = p;
              status = "ok";
              error = None;
              wall_s = 0.0;
              metrics;
              data = [];
            };
          ];
        Printf.printf "ledger row -> %s\n" path)
      out
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one campaign point (the sweep's unit of work) and print \
             its canonical key, run id and metrics."
       ~man:
         [
           `S Manpage.s_examples;
           `P "svt_sim run --mode ooh; svt_sim run --mode ooh -w rr; \
               svt_sim run --arch arm --mode sw-svt; svt_sim run --mode \
               sw-svt -w consolidate";
           `P "svt_sim run --mode sw-svt -w rr --seed 7 --fault \
               drop-ring:0.01 --out faults.jsonl; repeat it and the \
               ledger rows are byte-identical.";
           `P "Exit status: 0 ok, 1 the run spent its event fuel (a \
               timeout line with the fuel counters is printed), 124 usage \
               error.";
         ])
    Term.(const run $ point_term Spec.workload_names $ fault_arg $ out_arg)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "svt_sim" ~version:"1.0.0"
      ~doc:"Simulator for 'Using SMT to Accelerate Nested Virtualization' (ISCA'19)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ run_cmd; trace_cmd; profile_cmd; sweep_cmd; sweep_diff_cmd;
            fuzz_cmd; sched_cmd; cluster_cmd; paper_cmd; blocked_demo_cmd ]))
