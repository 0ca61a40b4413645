(* Tests for the campaign subsystem: spec expansion and identity, the
   worker pool's sequential/parallel equivalence and its one attempt per
   task, and the JSONL ledger round trip. *)

module Mode = Svt_core.Mode
module System = Svt_core.System
module Spec = Svt_campaign.Spec
module Pool = Svt_campaign.Pool
module Runner = Svt_campaign.Runner
module Ledger = Svt_campaign.Ledger
module Campaign = Svt_campaign.Campaign

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Spec ---------------------------------------------------------------- *)

let test_cartesian_counts () =
  let spec =
    Spec.cartesian
      ~modes:[ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt ]
      ~levels:[ System.L1_leaf; System.L2_nested ]
      ()
  in
  checki "3 modes x 2 levels" 6 (List.length spec);
  let spec2 =
    Spec.cartesian ~modes:[ Mode.Baseline ] ~workloads:[ "cpuid"; "rr" ]
      ~seeds:[ 0; 1; 2 ] ()
  in
  checki "1 x 2 workloads x 3 seeds" 6 (List.length spec2);
  checki "defaults are singletons" 1 (List.length (Spec.cartesian ()))

let test_run_id_stable_across_orderings () =
  let spec =
    Spec.cartesian
      ~modes:[ Mode.Baseline; Mode.sw_svt_default; Mode.Hw_svt ]
      ~levels:[ System.L1_leaf; System.L2_nested ]
      ~seeds:[ 0; 1 ] ()
  in
  let ids = List.map Spec.run_id spec in
  let ids_rev = List.rev_map Spec.run_id (List.rev spec) in
  checkb "same ids regardless of enumeration order" true (ids = ids_rev);
  let sorted = List.sort_uniq compare ids in
  checki "all ids distinct" (List.length spec) (List.length sorted);
  (* A point's id depends only on its contents. *)
  let p = Spec.point ~workload:"rr" ~seed:3 Mode.Hw_svt in
  let p' = Spec.point ~workload:"rr" ~seed:3 Mode.Hw_svt in
  checks "content-addressed" (Spec.run_id p) (Spec.run_id p');
  checkb "seed changes the id" true
    (Spec.run_id p <> Spec.run_id (Spec.point ~workload:"rr" ~seed:4 Mode.Hw_svt))

(* The property the redesigned Mode API promises: one canonical table,
   round-tripping over EVERY mode (13 = baseline, hw-svt, hw-full-nesting,
   ooh, and the 3x3 sw-svt wait/placement grid). *)
let test_mode_round_trip () =
  checki "all modes enumerated" 13 (List.length Mode.all);
  checkb "ooh is a first-class mode" true (List.mem Mode.Ooh Mode.all);
  List.iter
    (fun m ->
      match Mode.of_string (Mode.to_string m) with
      | Ok m' -> checkb (Mode.to_string m) true (m = m')
      | Error e -> Alcotest.fail e)
    Mode.all;
  (* Short aliases keep parsing; unknown strings are typed errors. *)
  checkb "sw alias" true (Mode.of_string "sw" = Ok Mode.sw_svt_default);
  checkb "hw alias" true (Mode.of_string "hw" = Ok Mode.Hw_svt);
  checkb "ooh long name" true
    (Mode.of_string "out-of-hypervisor" = Ok Mode.Ooh);
  checkb "garbage rejected" true (Result.is_error (Mode.of_string "warp-drive"));
  checkb "unknown wait rejected" true
    (Result.is_error (Mode.of_string "sw-svt-bogus"))

let test_axis_grammar () =
  let axes =
    [ "mode=baseline,hw-svt"; "level=l1,l2"; "seed=0,1" ]
    |> List.map (fun s ->
           match Spec.parse_axis s with
           | Ok a -> a
           | Error e -> Alcotest.fail e)
  in
  (match Spec.of_axes axes with
  | Ok spec -> checki "2x2x2 points" 8 (List.length spec)
  | Error e -> Alcotest.fail e);
  checkb "unknown key rejected" true
    (Result.is_error (Spec.of_axes [ ("frobnicate", [ "1" ]) ]));
  checkb "bad mode rejected" true
    (Result.is_error (Spec.of_axes [ ("mode", [ "warp-drive" ]) ]));
  checkb "bad vcpus rejected" true
    (Result.is_error (Spec.of_axes [ ("vcpus", [ "zero" ]) ]));
  checkb "unknown workload rejected" true
    (Result.is_error (Spec.of_axes [ ("workload", [ "netperf-rr" ]) ]));
  checkb "missing = rejected" true (Result.is_error (Spec.parse_axis "mode"))

(* Identity is a pinned byte format: the canonical key, the run_id hashed
   from it and the ledger line (plain and CRC'd) of one point with every
   axis off its default and of the all-default point, captured as
   literals. A refactor of Spec or Ledger must leave every byte alone. *)
let plain_line (e : Svt_campaign.Ledger.entry) =
  let path = Filename.temp_file "svt_pin" ".jsonl" in
  Sys.remove path;
  let w = Svt_campaign.Ledger.writer ~crc:false path in
  Svt_campaign.Ledger.append w e;
  Svt_campaign.Ledger.close w;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  String.sub s 0 (String.length s - 1)

let crc_line e = Svt_campaign.Ledger.line ~crc:true e

let test_identity_pinned () =
  let off =
    Spec.point ~arch:Svt_arch.Backend.Arm ~level:System.L1_leaf ~workload:"rr"
      ~vcpus:2 ~seed:7 ~fault:"drop-ring:0.05" ~cores:2 ~smt:1 ~tenants:3
      ~policy:"shared-pool:2" ~hosts:4 Mode.Ooh
  in
  let dflt = Spec.point Mode.Baseline in
  let entry point status error metrics data =
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status;
      error;
      wall_s = 0.25;
      metrics;
      data;
    }
  in
  let e_off =
    entry off "failed" (Some "Failure(\"boom\")") [ ("per_op_us", 5.37) ]
      [ ("input", "a\"b") ]
  in
  let e_dflt =
    entry dflt "ok" None
      [ ("per_op_us", 10.35); ("samples", 64.0); ("not_a_number", nan) ]
      []
  in
  checks "off-default key"
    {|mode=ooh;level=l1;workload=rr;vcpus=2;seed=7;fault=drop-ring:0.05;cores=2;smt=1;tenants=3;policy=shared-pool:2;hosts=4;arch=arm|}
    (Spec.canonical_key off);
  checks "off-default run_id"
    {|df685c71368ea87a|}
    (Spec.run_id off);
  checks "off-default plain line"
    {|{"run_id":"df685c71368ea87a","mode":"ooh","level":"l1","workload":"rr","vcpus":2,"seed":7,"cores":2,"smt_per_core":1,"tenants":3,"hosts":4,"fault":"drop-ring:0.05","policy":"shared-pool:2","arch":"arm","status":"failed","error":"Failure(\"boom\")","attempts":1,"wall_s":0.25,"metrics":{"per_op_us":5.3700000000000001},"data":{"input":"a\"b"}}|}
    (plain_line e_off);
  checks "off-default crc line"
    {|{"run_id":"df685c71368ea87a","mode":"ooh","level":"l1","workload":"rr","vcpus":2,"seed":7,"cores":2,"smt_per_core":1,"tenants":3,"hosts":4,"fault":"drop-ring:0.05","policy":"shared-pool:2","arch":"arm","status":"failed","error":"Failure(\"boom\")","attempts":1,"wall_s":0.25,"metrics":{"per_op_us":5.3700000000000001},"data":{"input":"a\"b"},"crc":"40d8c714"}|}
    (crc_line e_off);
  checks "default key"
    {|mode=baseline;level=l2;workload=cpuid;vcpus=1;seed=0|}
    (Spec.canonical_key dflt);
  checks "default run_id"
    {|93b3fca55c1983a5|}
    (Spec.run_id dflt);
  checks "default plain line"
    {|{"run_id":"93b3fca55c1983a5","mode":"baseline","level":"l2","workload":"cpuid","vcpus":1,"seed":0,"cores":1,"smt_per_core":2,"tenants":1,"hosts":1,"status":"ok","attempts":1,"wall_s":0.25,"metrics":{"per_op_us":10.35,"samples":64,"not_a_number":null}}|}
    (plain_line e_dflt);
  checks "default crc line"
    {|{"run_id":"93b3fca55c1983a5","mode":"baseline","level":"l2","workload":"cpuid","vcpus":1,"seed":0,"cores":1,"smt_per_core":2,"tenants":1,"hosts":1,"status":"ok","attempts":1,"wall_s":0.25,"metrics":{"per_op_us":10.35,"samples":64,"not_a_number":null},"crc":"a6b61f4f"}|}
    (crc_line e_dflt)

(* --- Pool ---------------------------------------------------------------- *)

(* Unwrap the outcome of task [i]; fails the test if it never ran. *)
let outcome (run : 'b Pool.run) i =
  match run.Pool.outcomes.(i) with
  | Some o -> o
  | None -> Alcotest.fail (Printf.sprintf "task %d has no outcome" i)

let test_pool_orders_results () =
  let tasks = Array.init 20 Fun.id in
  let f x = x * x in
  let seq = Pool.map ~jobs:1 f tasks in
  let par = Pool.map ~jobs:4 f tasks in
  checkb "sequential ran everything" true (not seq.Pool.stopped_early);
  checki "sequential completed" 20 seq.Pool.completed;
  checki "parallel completed" 20 par.Pool.completed;
  Array.iteri
    (fun i _ ->
      match ((outcome seq i).Pool.result, (outcome par i).Pool.result) with
      | Ok a, Ok b ->
          checki "sequential value" (i * i) a;
          checki "parallel value" (i * i) b
      | _ -> Alcotest.fail "unexpected pool failure")
    tasks

let test_pool_one_attempt () =
  (* Every task runs exactly once, failing or not, at any worker count.
     Counters are keyed per task so parallel workers never share a
     cell. *)
  List.iter
    (fun jobs ->
      let calls = Array.make 8 0 in
      let mu = Mutex.create () in
      let f i =
        Mutex.protect mu (fun () -> calls.(i) <- calls.(i) + 1);
        if i mod 2 = 1 then failwith "broken";
        i
      in
      let out = Pool.map ~jobs f (Array.init 8 Fun.id) in
      Array.iteri
        (fun i n ->
          checki (Printf.sprintf "jobs=%d task %d called once" jobs i) 1 n;
          let o = outcome out i in
          if i mod 2 = 1 then begin
            checkb "failure recorded" true (Result.is_error o.Pool.result);
            checkb "backtrace recorded" true (o.Pool.backtrace <> None)
          end
          else checkb "value kept" true (o.Pool.result = Ok i))
        calls)
    [ 1; 2 ]

let test_pool_progress_callback () =
  let seen = ref 0 in
  let fails = ref 0 in
  let f i = if i mod 3 = 0 then failwith "x" else i in
  let _ =
    Pool.map ~jobs:4
      ~on_result:(fun ~index:_ o ->
        incr seen;
        if Result.is_error o.Pool.result then incr fails)
      f (Array.init 12 Fun.id)
  in
  checki "callback once per task" 12 !seen;
  checki "failures seen" 4 !fails

(* --- Campaign: sequential vs parallel equivalence ------------------------ *)

let test_seq_parallel_identical () =
  let spec =
    Spec.cartesian
      ~modes:[ Mode.Baseline; Mode.Hw_svt ]
      ~levels:[ System.L1_leaf; System.L2_nested ]
      ()
  in
  let run1 = Campaign.execute ~jobs:1 spec in
  let run4 = Campaign.execute ~jobs:4 spec in
  checki "all ok sequential" 4 run1.Campaign.ok;
  checki "all ok parallel" 4 run4.Campaign.ok;
  List.iter2
    (fun (a : Ledger.entry) (b : Ledger.entry) ->
      checks "same run_id" a.Ledger.run_id b.Ledger.run_id;
      (* Byte-identical: the serialized metric lists match exactly. *)
      let serialize r =
        String.concat ";"
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%.17g" k v)
             r.Ledger.metrics)
      in
      checks "byte-identical metrics" (serialize a) (serialize b))
    run1.Campaign.results run4.Campaign.results

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_campaign_failed_row () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ] ~seeds:[ 0; 1 ] ()
  in
  (* Injected runner: one point always fails, the others succeed. *)
  let mu = Mutex.create () in
  let calls = Hashtbl.create 8 in
  let run (p : Spec.point) =
    Mutex.protect mu (fun () ->
        let id = Spec.run_id p in
        Hashtbl.replace calls id
          (1 + Option.value (Hashtbl.find_opt calls id) ~default:0));
    if p.Spec.seed = 1 && p.Spec.mode = Mode.Hw_svt then failwith "always-broken";
    [ ("value", float_of_int p.Spec.seed) ]
  in
  let o = Campaign.execute ~jobs:2 ~run spec in
  List.iter
    (fun p ->
      checki "each point called once" 1 (Hashtbl.find calls (Spec.run_id p)))
    spec;
  checki "three points ok" 3 o.Campaign.ok;
  checki "one point failed" 1 o.Campaign.failed;
  checki "failed exit code" 1 (Campaign.exit_code o);
  List.iter
    (fun (e : Ledger.entry) ->
      match (e.Ledger.status, e.Ledger.error) with
      | "ok", None -> ()
      | "failed", Some msg ->
          checkb "message names the exception" true
            (contains_sub msg "always-broken");
          checkb "message carries the backtrace" true
            (contains_sub msg "Raised at")
      | s, _ -> Alcotest.fail ("unexpected status " ^ s))
    o.Campaign.results

(* --- Ledger -------------------------------------------------------------- *)

let temp_ledger () = Filename.temp_file "svt_ledger" ".jsonl"

let sample_entries () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ]
      ~levels:[ System.L2_nested ] ()
  in
  let run (p : Spec.point) =
    [
      ("per_op_us", if p.Spec.mode = Mode.Baseline then 10.4 else 5.37);
      ("weird \"quoted\"", -1.5);
      ("not_a_number", nan);
    ]
  in
  (Campaign.execute ~jobs:1 ~run spec).Campaign.results

let write_plain path entries =
  let w = Ledger.writer ~crc:false path in
  List.iter (Ledger.append w) entries;
  Ledger.close w

let test_ledger_round_trip () =
  let path = temp_ledger () in
  let entries = sample_entries () in
  write_plain path entries;
  (match Ledger.load path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      checki "entry count" (List.length entries) (List.length loaded);
      List.iter2
        (fun (a : Ledger.entry) (b : Ledger.entry) ->
          checks "run_id" a.Ledger.run_id b.Ledger.run_id;
          checkb "point" true (a.Ledger.point = b.Ledger.point);
          checks "status" a.Ledger.status b.Ledger.status;
          checki "metric count" (List.length a.Ledger.metrics)
            (List.length b.Ledger.metrics);
          List.iter2
            (fun (ka, va) (kb, vb) ->
              checks "metric name" ka kb;
              checkb "metric value" true
                (va = vb || (Float.is_nan va && Float.is_nan vb)))
            a.Ledger.metrics b.Ledger.metrics)
        entries loaded);
  (* Appending accumulates lines rather than truncating. *)
  write_plain path entries;
  (match Ledger.load path with
  | Ok loaded -> checki "append-only" (2 * List.length entries) (List.length loaded)
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* Ledger compatibility across the Mode API redesign: schema-v2 rows
   written before the ooh mode existed keep parsing with their omitted
   axes back at the defaults (so historical run_ids survive), and an ooh
   row goes through the same codec byte-stably. *)
let test_ledger_mode_compat () =
  let legacy =
    "{\"run_id\":\"feedc0de00000000\",\"mode\":\"sw-svt-mwait@cross-numa\",\
     \"level\":\"l2\",\"workload\":\"rr\",\"vcpus\":2,\"seed\":5,\
     \"status\":\"ok\",\"attempts\":1,\"wall_s\":0,\
     \"metrics\":{\"per_op_us\":8.4}}"
  in
  (match Ledger.entry_of_line legacy with
  | Error e -> Alcotest.fail e
  | Ok e ->
      checkb "legacy mode string parses" true
        (e.Ledger.point.Spec.mode
        = Mode.Sw_svt { wait = Mode.Mwait; placement = Mode.Cross_numa });
      (* the axes a v2 row omits come back as their defaults *)
      checks "fault defaults empty" "" e.Ledger.point.Spec.fault;
      checki "cores default" 1 e.Ledger.point.Spec.cores;
      checki "tenants default" 1 e.Ledger.point.Spec.tenants;
      checks "policy defaults empty" "" e.Ledger.point.Spec.policy);
  (* Every legacy mode spelling is still parsed by the one shared table. *)
  List.iter
    (fun s ->
      checkb (s ^ " still parses") true (Result.is_ok (Mode.of_string s)))
    [ "baseline"; "sw-svt"; "sw-svt-polling"; "sw-svt-mutex@same-numa-core";
      "hw-svt"; "hw-full-nesting" ];
  (* An ooh row round-trips through the ledger codec byte-stably. *)
  let point = Spec.point ~workload:"cpuid" ~seed:3 Mode.Ooh in
  let e =
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status = "ok";
      error = None;
      wall_s = 0.0;
      metrics = [ ("per_op_us", 2.4) ];
      data = [];
    }
  in
  let line1 = Ledger.line ~crc:true e in
  match Ledger.entry_of_line line1 with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      checkb "ooh point survives" true (e'.Ledger.point = point);
      checks "ooh row byte-stable" line1 (Ledger.line ~crc:true e')

(* Ledger compatibility across the arch-backend redesign (schema v4):
   v3 rows carry no arch field and must keep parsing as x86 with their
   canonical keys — and hence run_ids and derived PRNG streams —
   unchanged; x86 rows must still serialize without an arch field; an
   ARM row must round-trip byte-stably with one. *)
let test_ledger_arch_compat () =
  let legacy =
    "{\"run_id\":\"feedc0de00000000\",\"mode\":\"sw-svt\",\"level\":\"l2\",\
     \"workload\":\"cpuid\",\"vcpus\":1,\"seed\":0,\"status\":\"ok\",\
     \"attempts\":1,\"wall_s\":0,\"metrics\":{\"per_op_us\":8.4}}"
  in
  (match Ledger.entry_of_line legacy with
  | Error e -> Alcotest.fail e
  | Ok e ->
      checkb "v3 row defaults to x86" true
        (Svt_arch.Backend.equal e.Ledger.point.Spec.arch Svt_arch.Backend.X86));
  (* the historical x86 key spelling is pinned: no arch segment *)
  let x86 = Spec.point ~workload:"cpuid" ~seed:3 Mode.Ooh in
  checks "x86 canonical key unchanged"
    "mode=ooh;level=l2;workload=cpuid;vcpus=1;seed=3"
    (Spec.canonical_key x86);
  let arm = Spec.point ~arch:Svt_arch.Backend.Arm ~workload:"cpuid" ~seed:3 Mode.Ooh in
  checks "arm key appends the axis"
    "mode=ooh;level=l2;workload=cpuid;vcpus=1;seed=3;arch=arm"
    (Spec.canonical_key arm);
  checkb "distinct run ids" true (Spec.run_id x86 <> Spec.run_id arm);
  let entry point =
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status = "ok";
      error = None;
      wall_s = 0.0;
      metrics = [ ("per_op_us", 2.4) ];
      data = [];
    }
  in
  (* x86 rows keep the v3 wire format byte-for-byte: no arch key *)
  let x86_line = Ledger.line ~crc:true (entry x86) in
  checkb "x86 row has no arch field" false (contains_sub x86_line "arch");
  (* an ARM row round-trips byte-stably with its arch field *)
  let arm_line = Ledger.line ~crc:true (entry arm) in
  match Ledger.entry_of_line arm_line with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      checkb "arm point survives" true (e'.Ledger.point = arm);
      checks "arm row byte-stable" arm_line (Ledger.line ~crc:true e')

(* An arch-axis sweep is byte-deterministic across worker counts: the
   jobs=2 sharding may change scheduling but never the ledger rows. *)
let test_ledger_arch_axis_jobs_deterministic () =
  let spec =
    Spec.cartesian
      ~archs:[ Svt_arch.Backend.X86; Svt_arch.Backend.Arm ]
      ~modes:[ Mode.Baseline; Mode.sw_svt_default ]
      ~levels:[ System.L2_nested ] ()
  in
  let lines jobs =
    (Campaign.execute ~jobs ~deterministic:true spec).Campaign.results
    |> List.map (fun r ->
           (* wall_s is host wall clock; the sweep's --deterministic pins
              it at the ledger-writing layer, so pin it here too *)
           Ledger.line ~crc:true { r with Ledger.wall_s = 0.0 })
  in
  let j1 = lines 1 and j2 = lines 2 in
  checki "4 points" 4 (List.length j1);
  List.iter2 (checks "row identical across jobs") j1 j2

let test_ledger_rejects_garbage () =
  let path = temp_ledger () in
  let oc = open_out path in
  output_string oc "{\"run_id\":\"x\" this is not json}\n";
  close_out oc;
  checkb "parse error reported" true (Result.is_error (Ledger.load path));
  Sys.remove path

(* A journaled row whose bytes no longer match its CRC (one digit of a
   metric flipped) is damage, not data: the strict reader rejects the
   ledger and names the line, while the intact row alone loads. *)
let test_ledger_load_checks_crc () =
  let row per_op_us =
    let point = Spec.point ~workload:"cpuid" Mode.Baseline in
    Ledger.line ~crc:true
      {
        Ledger.run_id = Spec.run_id point;
        point;
        status = "ok";
        error = None;
        wall_s = 0.0;
        metrics = [ ("per_op_us", per_op_us) ];
        data = [];
      }
  in
  let intact = row 10.35 in
  (* the 90.35 row's bytes followed by the 10.35 row's ,"crc":"..." *)
  let damaged =
    let crc_at l = String.rindex l ',' in
    let good = row 90.35 in
    String.sub good 0 (crc_at good)
    ^ String.sub intact (crc_at intact) (String.length intact - crc_at intact)
  in
  checkb "the damaged row differs" true (damaged <> intact);
  let path = temp_ledger () in
  let write lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  write [ intact ];
  checkb "intact row loads" true (Result.is_ok (Ledger.load path));
  write [ intact; damaged ];
  (match Ledger.load path with
  | Ok _ -> Alcotest.fail "a row failing its CRC loaded"
  | Error msg ->
      let prefix = path ^ ":2:" in
      checks "names the damaged line" prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix))));
  Sys.remove path

(* The sweep's measured-vs-paper footer compares only x86, fault-free
   runs, each SVt run against the baseline run that differs from it in
   mode alone: an ARM pair listed first and a fault-injected pair, each
   complete with its baseline twin, must not leak into the paper
   comparison. *)
let test_paper_speedup_pairs () =
  let entry ?arch ?(fault = "") ?(workload = "cpuid") mode metric v =
    let point = Spec.point ?arch ~workload ~fault mode in
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status = "ok";
      error = None;
      wall_s = 0.0;
      metrics = [ (metric, v) ];
      data = [];
    }
  in
  let arm = Svt_arch.Backend.Arm in
  let rows =
    Svt_report.Paper.speedup_rows_of_ledger
      [
        entry ~arch:arm Mode.Baseline "per_op_us" 20.0;
        entry ~arch:arm Mode.sw_svt_default "per_op_us" 8.5;
        entry Mode.Baseline "per_op_us" 10.35;
        entry Mode.sw_svt_default "per_op_us" 8.4;
        entry ~workload:"rr" ~fault:"drop-ring:1" Mode.Baseline "mean_rtt_us"
          150.0;
        entry ~workload:"rr" ~fault:"drop-ring:1" Mode.sw_svt_default
          "mean_rtt_us" 150.0;
      ]
  in
  match rows with
  | [ r ] ->
      checks "the x86 cpuid pair" "cpuid latency sw-svt speedup"
        r.Svt_report.Compare.metric;
      checkb "x86 speedup" true
        (Float.abs (r.Svt_report.Compare.measured -. (10.35 /. 8.4)) < 1e-9)
  | rows -> checki "exactly one comparable pair" 1 (List.length rows)

let test_ledger_diff () =
  let entries = sample_entries () in
  checki "self-diff is empty" 0 (List.length (Ledger.diff entries entries));
  let bumped =
    List.map
      (fun (e : Ledger.entry) ->
        if e.Ledger.point.Spec.mode = Mode.Hw_svt then
          {
            e with
            Ledger.metrics =
              List.map
                (fun (k, v) ->
                  (k, if k = "per_op_us" then v +. 1.0 else v))
                e.Ledger.metrics;
          }
        else e)
      entries
  in
  match Ledger.diff entries bumped with
  | [ (run_id, [ ("per_op_us", old_v, new_v) ]) ] ->
      let hw =
        List.find
          (fun (e : Ledger.entry) -> e.Ledger.point.Spec.mode = Mode.Hw_svt)
          entries
      in
      checks "changed run" hw.Ledger.run_id run_id;
      checkb "old value" true (old_v = 5.37);
      checkb "new value" true (new_v = 6.37)
  | d -> Alcotest.fail (Printf.sprintf "unexpected diff shape (%d runs)" (List.length d))

(* --- Journal: CRC, torn-write recovery, number stability ------------------ *)

let test_crc_lines () =
  let entries = sample_entries () in
  List.iter
    (fun (e : Ledger.entry) ->
      let line = Ledger.line ~crc:true e in
      (match Ledger.entry_of_line line with
      | Ok e' -> checks "run_id survives crc" e.Ledger.run_id e'.Ledger.run_id
      | Error msg -> Alcotest.fail ("good line rejected: " ^ msg));
      (* Flip one run_id digit: the row still parses without its
         checksum, so only the CRC can catch the flip. *)
      let at = String.length "{\"run_id\":\"" in
      let flip l =
        let b = Bytes.of_string l in
        Bytes.set b at (if l.[at] = '0' then '1' else '0');
        Bytes.to_string b
      in
      checkb "flip parses without a crc" true
        (Result.is_ok (Ledger.entry_of_line (flip (Ledger.line ~crc:false e))));
      checkb "bit flip detected" true
        (Result.is_error (Ledger.entry_of_line (flip line))))
    entries;
  (* A legacy line without a crc field is accepted unchecked. *)
  let plain = "{\"run_id\":\"x\",\"mode\":\"baseline\",\"level\":\"l2\",\"workload\":\"cpuid\",\"vcpus\":1,\"seed\":0,\"status\":\"ok\",\"attempts\":1,\"wall_s\":0,\"metrics\":{}}" in
  (match Ledger.entry_of_line plain with
  | Ok e -> checks "legacy line parses" "x" e.Ledger.run_id
  | Error msg -> Alcotest.fail msg)

(* The crash-recovery property: truncate a valid journal at EVERY byte
   offset; [recover] must never raise and must salvage exactly the rows
   whose full line text survived the cut. *)
let test_recover_truncation_property () =
  let path = temp_ledger () in
  let entries = sample_entries () in
  let entries = entries @ entries in
  Ledger.rewrite path entries;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  (* Offsets (exclusive) at which each row's line text is complete. *)
  let line_ends =
    let ends = ref [] in
    String.iteri (fun i c -> if c = '\n' then ends := i :: !ends) bytes;
    List.rev_map (fun e -> e) !ends
  in
  let expected cut =
    List.length (List.filter (fun e -> cut >= e) line_ends)
  in
  let tmp = temp_ledger () in
  for cut = 0 to len do
    let oc = open_out_bin tmp in
    output_string oc (String.sub bytes 0 cut);
    close_out oc;
    let r =
      try Ledger.recover tmp
      with e ->
        Alcotest.fail
          (Printf.sprintf "recover raised at offset %d: %s" cut
             (Printexc.to_string e))
    in
    checki (Printf.sprintf "salvaged rows at offset %d" cut) (expected cut)
      (List.length r.Ledger.entries);
    (* Salvaged rows are exactly the prefix, in order. *)
    List.iteri
      (fun i (got : Ledger.entry) ->
        let want = List.nth entries i in
        checks "prefix run_id" want.Ledger.run_id got.Ledger.run_id)
      r.Ledger.entries;
    (* A cut at a line boundary (end of text, or just after the newline)
       leaves no torn bytes; anywhere else recover must report damage. *)
    let at_boundary =
      cut = 0 || List.exists (fun e -> cut = e || cut = e + 1) line_ends
    in
    if not at_boundary then
      checkb
        (Printf.sprintf "damage reported at offset %d" cut)
        true
        (r.Ledger.error <> None)
  done;
  Sys.remove tmp;
  Sys.remove path

(* Ledger numbers must survive write -> parse -> write byte-stably:
   resume appends rows next to rows parsed back from disk, and the
   interrupt/resume cases demand the bytes agree. *)
let test_number_round_trip () =
  let values =
    [
      0.0; 1.0; -1.0; 42.0; 1013756979.0; 3.14; 0.1; 1e-9; -2.5e-3;
      999999999999999.0; 1e15 -. 1.0; 9007199254740993.0; 1.7e308;
      5.37; 10.4; nan;
    ]
  in
  let point = Spec.point Mode.Baseline in
  let e =
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status = "ok";
      error = None;
      wall_s = 0.125;
      metrics = List.mapi (fun i v -> (Printf.sprintf "m%02d" i, v)) values;
      data = [];
    }
  in
  let line1 = Ledger.line ~crc:true e in
  match Ledger.entry_of_line line1 with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      let line2 = Ledger.line ~crc:true e' in
      checks "write/parse/write is byte-stable" line1 line2

let salvaged path = List.length (Ledger.recover path).Ledger.entries

let test_journal_checkpointing () =
  let path = temp_ledger () in
  Sys.remove path;
  let entries = sample_entries () in
  let j = Ledger.writer ~crc:true path in
  List.iter (Ledger.append j) entries;
  (* Every appended row is flushed at once: a kill before close loses
     nothing. *)
  checki "every row durable before close" (List.length entries)
    (salvaged path);
  Ledger.close j;
  checki "all rows durable after close" (List.length entries) (salvaged path);
  (* Append mode: a second journal continues the file. *)
  let j = Ledger.writer ~crc:true path in
  List.iter (Ledger.append j) entries;
  Ledger.close j;
  checki "appended" (2 * List.length entries) (salvaged path);
  (* Atomic rewrite replaces content. *)
  Ledger.rewrite path entries;
  checki "rewrite is canonical" (List.length entries) (salvaged path);
  Sys.remove path

(* --- Pool supervision ----------------------------------------------------- *)

let test_pool_callback_crash_isolated () =
  (* A hostile on_result must not kill the worker domain (the old code
     deadlocked Domain.join) nor lose the other tasks' outcomes. *)
  let f x = x + 1 in
  let out =
    Pool.map ~jobs:4
      ~on_result:(fun ~index o ->
        if index = 3 && o.Pool.result = Ok 4 then failwith "hostile callback")
      f (Array.init 12 Fun.id)
  in
  let filled = ref 0 in
  Array.iter (fun o -> if o <> None then incr filled) out.Pool.outcomes;
  checki "every slot filled" 12 !filled;
  (* The poisoned slot records the callback failure rather than vanishing. *)
  checkb "crash captured in slot" true
    (Result.is_error (outcome out 3).Pool.result);
  (* All other tasks kept their values. *)
  Array.iteri
    (fun i _ ->
      if i <> 3 then checkb "value kept" true ((outcome out i).Pool.result = Ok (i + 1)))
    out.Pool.outcomes

let test_pool_stop_after () =
  let out = Pool.map ~jobs:1 ~stop_after:5 Fun.id (Array.init 20 Fun.id) in
  checki "stopped at the row limit" 5 out.Pool.completed;
  checkb "reported early stop" true out.Pool.stopped_early;
  let filled = ref 0 in
  Array.iter (fun o -> if o <> None then incr filled) out.Pool.outcomes;
  checki "no surplus rows" 5 !filled;
  (* A limit >= n is not an interruption. *)
  let out = Pool.map ~jobs:1 ~stop_after:20 Fun.id (Array.init 20 Fun.id) in
  checkb "full run not early" true (not out.Pool.stopped_early)

(* --- Campaign: interrupt / resume equivalence ----------------------------- *)

let det_run (p : Spec.point) =
  [ ("value", float_of_int (p.Spec.seed * 10)); ("mode_is_hw",
      if p.Spec.mode = Mode.Hw_svt then 1.0 else 0.0) ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_resume_equivalence () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ] ~seeds:[ 0; 1; 2 ] ()
  in
  let full_path = temp_ledger () and cut_path = temp_ledger () in
  Sys.remove full_path;
  Sys.remove cut_path;
  (* Uninterrupted reference. *)
  let full =
    Campaign.execute ~jobs:1 ~deterministic:true ~ledger:full_path ~run:det_run
      spec
  in
  checki "reference all ok" 6 full.Campaign.ok;
  checki "reference exit code" 0 (Campaign.exit_code full);
  (* Interrupted after 3 rows (simulated crash)... *)
  let cut =
    Campaign.execute ~jobs:1 ~max_rows:3 ~deterministic:true ~ledger:cut_path
      ~run:det_run spec
  in
  checkb "interrupted" true cut.Campaign.interrupted;
  checki "interrupt exit code" 3 (Campaign.exit_code cut);
  checki "rows before the cut" 3 (List.length cut.Campaign.results);
  checki "skipped reported" 3 cut.Campaign.skipped;
  (* ...then resumed: reuses the 3 ok rows, runs the remaining 3. *)
  let resumed =
    Campaign.execute ~jobs:2 ~resume:true ~deterministic:true ~ledger:cut_path
      ~run:det_run spec
  in
  checki "resume reused" 3 resumed.Campaign.reused;
  checki "resume all ok" 6 resumed.Campaign.ok;
  checki "resume exit code" 0 (Campaign.exit_code resumed);
  (* The acceptance bar: byte-identical ledgers. *)
  checks "resumed ledger == uninterrupted ledger" (read_file full_path)
    (read_file cut_path);
  (* Resuming a complete ledger runs nothing and changes nothing. *)
  let again =
    Campaign.execute ~jobs:1 ~resume:true ~deterministic:true ~ledger:cut_path
      ~run:det_run spec
  in
  checki "nothing re-run" 6 again.Campaign.reused;
  checks "idempotent resume" (read_file full_path) (read_file cut_path);
  Sys.remove full_path;
  Sys.remove cut_path

(* The same equivalence over real simulator runs. The hung spin workload
   spends its fuel on every mode, so a third of the rows are timeouts:
   those never count as done, and resume must re-execute them to the
   same bytes. Exit 1 (some run timed out) is the success criterion for
   the complete sweeps. *)
let test_resume_reruns_timeouts () =
  let spec =
    Spec.cartesian
      ~modes:[ Mode.Baseline; Mode.Hw_svt; Mode.sw_svt_default ]
      ~workloads:[ "cpuid"; "spin" ] ()
  in
  let run = Runner.exec ~max_sim_events:200_000 in
  let full_path = temp_ledger () and cut_path = temp_ledger () in
  Sys.remove full_path;
  Sys.remove cut_path;
  let full =
    Campaign.execute ~jobs:2 ~deterministic:true ~ledger:full_path ~run spec
  in
  checki "spin rows time out" 3 full.Campaign.timeout;
  checki "reference exit code" 1 (Campaign.exit_code full);
  (* jobs=1 makes the cut deterministic: cpuid, spin, cpuid. *)
  let cut =
    Campaign.execute ~jobs:1 ~max_rows:3 ~deterministic:true ~ledger:cut_path
      ~run spec
  in
  checki "interrupt exit code" 3 (Campaign.exit_code cut);
  checki "the cut holds a timeout row" 1 cut.Campaign.timeout;
  let resumed =
    Campaign.execute ~jobs:2 ~resume:true ~deterministic:true ~ledger:cut_path
      ~run spec
  in
  checki "resume exit code" 1 (Campaign.exit_code resumed);
  checki "only the ok rows are reused" 2 resumed.Campaign.reused;
  checks "resumed ledger == uninterrupted ledger" (read_file full_path)
    (read_file cut_path);
  Sys.remove full_path;
  Sys.remove cut_path

let test_resume_survives_torn_tail () =
  let spec = Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ] ~seeds:[ 0; 1 ] () in
  let path = temp_ledger () in
  Sys.remove path;
  let cut =
    Campaign.execute ~jobs:1 ~max_rows:2 ~deterministic:true ~ledger:path
      ~run:det_run spec
  in
  checkb "interrupted" true cut.Campaign.interrupted;
  (* Tear the journal mid-row, as a real crash would. *)
  let bytes = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (String.length bytes - 7));
  close_out oc;
  let resumed =
    Campaign.execute ~jobs:1 ~resume:true ~deterministic:true ~ledger:path
      ~run:det_run spec
  in
  (* One row lost to the tear, re-run along with the never-run rows. *)
  checki "one row salvaged" 1 resumed.Campaign.reused;
  checki "campaign completes" 4 resumed.Campaign.ok;
  (match Ledger.load path with
  | Ok rows -> checki "final ledger complete" 4 (List.length rows)
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* Rows pinned verbatim from ledgers written while failed runs were
   retried and sweeps could stream heartbeats: a run quarantined after
   two attempts, and a heartbeat row (workload "telemetry"). Both still
   parse; resume re-runs the quarantined point and drops the heartbeat,
   converging on the ledger of a fresh campaign. *)
let legacy_quarantined =
  {|{"run_id":"67ab1dfaa4d57223","mode":"baseline","level":"l2","workload":"nope","vcpus":1,"seed":0,"cores":1,"smt_per_core":2,"tenants":1,"hosts":1,"status":"quarantined","error":"Failure(\"unknown workload \\\"nope\\\" (expected one of cpuid, rr, stream, ioping, fio, etc, tpcc, video, spin, consolidate, cluster)\")\nRaised at Stdlib.failwith in file \"stdlib.ml\", line 29, characters 17-33\nCalled from Svt_campaign__Runner.exec in file \"lib/campaign/runner.ml\", line 258, characters 16-38\nCalled from Svt_campaign__Pool.run_task.go in file \"lib/campaign/pool.ml\", line 51, characters 24-32","attempts":2,"wall_s":0,"metrics":{},"crc":"7032ed53"}|}

let legacy_heartbeat =
  {|{"run_id":"d2031fb57bcf15f5","mode":"baseline","level":"l2","workload":"telemetry","vcpus":1,"seed":0,"cores":1,"smt_per_core":2,"tenants":1,"hosts":1,"status":"ok","attempts":1,"wall_s":0,"metrics":{"ok":1,"rows":1,"sim_events":1009},"data":{"telemetry":"sweep"},"crc":"ab663154"}|}

let test_legacy_rows () =
  let nope = Spec.point ~workload:"nope" Mode.Baseline in
  (match Ledger.entry_of_line legacy_quarantined with
  | Error e -> Alcotest.fail e
  | Ok e ->
      checks "quarantined status kept" "quarantined" e.Ledger.status;
      checkb "point survives" true (e.Ledger.point = nope);
      checks "run_id matches the point" (Spec.run_id nope) e.Ledger.run_id);
  (match Ledger.entry_of_line legacy_heartbeat with
  | Error e -> Alcotest.fail e
  | Ok e ->
      checks "heartbeat workload" "telemetry" e.Ledger.point.Spec.workload);
  let spec = [ nope; Spec.point ~seed:1 Mode.Baseline ] in
  let fresh = temp_ledger () and old = temp_ledger () in
  Sys.remove fresh;
  let _ =
    Campaign.execute ~jobs:1 ~deterministic:true ~ledger:fresh ~run:det_run spec
  in
  let oc = open_out_bin old in
  output_string oc (legacy_quarantined ^ "\n" ^ legacy_heartbeat ^ "\n");
  close_out oc;
  let resumed =
    Campaign.execute ~jobs:1 ~resume:true ~deterministic:true ~ledger:old
      ~run:det_run spec
  in
  checki "nothing reused" 0 resumed.Campaign.reused;
  checki "quarantined point re-run" 2 resumed.Campaign.ok;
  checks "resumed ledger == fresh ledger" (read_file fresh) (read_file old);
  Sys.remove fresh;
  Sys.remove old

(* The deliberately hung workload: an unbounded reflection loop that only
   the simulator fuel budget can end, surfacing as a timeout row. *)
let test_fuel_budget_cuts_hung_workload () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline ] ~workloads:[ "spin" ]
      ~levels:[ Svt_core.System.L2_nested ] ()
  in
  let calls = ref 0 in
  let o =
    Campaign.execute ~jobs:1
      ~run:(fun p ->
        incr calls;
        Runner.exec ~max_sim_events:20_000 p)
      spec
  in
  checki "hung run recorded" 1 (List.length o.Campaign.results);
  checki "as a timeout" 1 o.Campaign.timeout;
  checki "timeout exit code" 1 (Campaign.exit_code o);
  let r = List.hd o.Campaign.results in
  checks "status" "timeout" r.Ledger.status;
  checki "run once" 1 !calls;
  checkb "fuel counter in metrics" true
    (List.assoc "sim_events" r.Ledger.metrics = 20_000.0);
  checkb "budget recorded" true
    (List.assoc "budget.max_events" r.Ledger.metrics = 20_000.0)

(* Failed rows carry a backtrace, and backtrace recording is per
   domain: a real sweep with failing points (an unknown workload, and a
   stack fault on the host-shaped cluster workload) must still write the
   same ledger bytes at every worker count. *)
let test_failed_rows_jobs_deterministic () =
  let spec =
    Spec.cartesian ~workloads:[ "nope"; "cluster"; "cpuid" ]
      ~faults:[ ""; "drop-ring:0.1" ] ()
  in
  let ledger jobs =
    let path = temp_ledger () in
    Sys.remove path;
    let o = Campaign.execute ~jobs ~deterministic:true ~ledger:path spec in
    checki "failed rows" 3 o.Campaign.failed;
    let s = read_file path in
    Sys.remove path;
    s
  in
  let j1 = ledger 1 in
  checkb "backtraces recorded" true (contains_sub j1 "Raised at");
  checks "jobs=2 ledger identical" j1 (ledger 2);
  checks "jobs=4 ledger identical" j1 (ledger 4)

(* trace and profile drive one stack, so they accept only the stack-shaped
   workloads; asking one stack to run a host-shaped workload says why. *)
let test_host_shaped_workloads () =
  checkb "registry = stack-shaped + host-shaped" true
    (Spec.workload_names
    = Spec.stack_workload_names @ [ "consolidate"; "cluster" ]);
  List.iter
    (fun workload ->
      let p = Spec.point ~workload Mode.Baseline in
      match Runner.workload_metrics p (Runner.make_system p) with
      | _ -> Alcotest.fail (workload ^ " ran on one stack")
      | exception Failure msg ->
          checkb msg true
            (String.starts_with
               ~prefix:(Printf.sprintf "workload %S is host-shaped" workload)
               msg))
    [ "consolidate"; "cluster" ]

(* --- end-to-end: sweep writes a ledger the reader accepts ---------------- *)

let test_campaign_writes_ledger () =
  let path = temp_ledger () in
  Sys.remove path;
  let spec = Spec.cartesian ~modes:[ Mode.Baseline ] ~levels:[ System.L1_leaf ] () in
  let o = Campaign.execute ~jobs:1 ~ledger:path spec in
  checki "one run" 1 o.Campaign.ok;
  (match Ledger.load path with
  | Ok [ e ] ->
      checks "status ok" "ok" e.Ledger.status;
      checkb "has cpuid metric" true (Float.is_finite (Ledger.metric e "per_op_us"));
      checkb "has sim_events" true (Ledger.metric e "sim_events" > 0.0)
  | Ok es -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length es))
  | Error e -> Alcotest.fail e);
  Sys.remove path

let () =
  Alcotest.run "campaign"
    [
      ( "spec",
        [
          Alcotest.test_case "cartesian counts" `Quick test_cartesian_counts;
          Alcotest.test_case "run_id stability" `Quick
            test_run_id_stable_across_orderings;
          Alcotest.test_case "mode round trip" `Quick test_mode_round_trip;
          Alcotest.test_case "axis grammar" `Quick test_axis_grammar;
          Alcotest.test_case "identity pinned" `Quick test_identity_pinned;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick test_pool_orders_results;
          Alcotest.test_case "one attempt per task" `Quick
            test_pool_one_attempt;
          Alcotest.test_case "progress callback" `Quick
            test_pool_progress_callback;
          Alcotest.test_case "callback crash isolated" `Quick
            test_pool_callback_crash_isolated;
          Alcotest.test_case "row limit stops early" `Quick
            test_pool_stop_after;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Quick
            test_seq_parallel_identical;
          Alcotest.test_case "failed row, one call per point" `Quick
            test_campaign_failed_row;
          Alcotest.test_case "failed rows byte-identical across jobs" `Quick
            test_failed_rows_jobs_deterministic;
          Alcotest.test_case "writes a loadable ledger" `Quick
            test_campaign_writes_ledger;
          Alcotest.test_case "interrupt/resume equivalence" `Quick
            test_resume_equivalence;
          Alcotest.test_case "resume re-runs timeout rows" `Quick
            test_resume_reruns_timeouts;
          Alcotest.test_case "resume survives torn tail" `Quick
            test_resume_survives_torn_tail;
          Alcotest.test_case "fuel budget cuts hung workload" `Quick
            test_fuel_budget_cuts_hung_workload;
          Alcotest.test_case "host-shaped workloads need exec" `Quick
            test_host_shaped_workloads;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "round trip" `Quick test_ledger_round_trip;
          Alcotest.test_case "legacy/ooh mode compat" `Quick
            test_ledger_mode_compat;
          Alcotest.test_case "arch compat (schema v4)" `Quick
            test_ledger_arch_compat;
          Alcotest.test_case "legacy quarantined and heartbeat rows" `Quick
            test_legacy_rows;
          Alcotest.test_case "arch axis byte-deterministic across jobs" `Quick
            test_ledger_arch_axis_jobs_deterministic;
          Alcotest.test_case "rejects garbage" `Quick test_ledger_rejects_garbage;
          Alcotest.test_case "load checks the crc" `Quick
            test_ledger_load_checks_crc;
          Alcotest.test_case "diff" `Quick test_ledger_diff;
          Alcotest.test_case "paper speedup pairs" `Quick
            test_paper_speedup_pairs;
        ] );
      ( "journal",
        [
          Alcotest.test_case "crc lines" `Quick test_crc_lines;
          Alcotest.test_case "truncation recovery property" `Quick
            test_recover_truncation_property;
          Alcotest.test_case "number round trip" `Quick test_number_round_trip;
          Alcotest.test_case "checkpoint flushing" `Quick
            test_journal_checkpointing;
        ] );
    ]
