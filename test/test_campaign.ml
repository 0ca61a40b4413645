(* Tests for the campaign subsystem: spec expansion and identity, the
   worker pool's sequential/parallel equivalence and retry machinery,
   and the JSONL ledger round trip. *)

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

let test_zip () =
  let a = Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ] () in
  let b =
    [ Spec.point ~workload:"rr" Mode.Baseline;
      Spec.point ~workload:"etc" ~vcpus:2 Mode.Baseline ]
  in
  let z = Spec.zip a b in
  checki "zip length" 2 (List.length z);
  let p1 = List.nth z 1 in
  checkb "mode from left" true (p1.Spec.mode = Mode.Hw_svt);
  checks "workload from right" "etc" p1.Spec.workload;
  checki "vcpus from right" 2 p1.Spec.vcpus;
  Alcotest.check_raises "length mismatch" (Invalid_argument "Spec.zip: length mismatch")
    (fun () -> ignore (Spec.zip a [ Spec.point Mode.Baseline ]))

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
  checkb "garbage rejected" true (Result.is_error (Mode.of_string "warp-drive"))

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
  checkb "missing = rejected" true (Result.is_error (Spec.parse_axis "mode"))

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

let test_pool_retry () =
  (* First attempt per task fails; the retry succeeds. Counters are keyed
     per task so parallel workers never share a cell. *)
  let attempts = Array.make 8 0 in
  let mu = Mutex.create () in
  let f i =
    let n =
      Mutex.protect mu (fun () ->
          attempts.(i) <- attempts.(i) + 1;
          attempts.(i))
    in
    if n = 1 then failwith "flaky";
    i
  in
  let out = Pool.map ~jobs:2 ~retries:1 f (Array.init 8 Fun.id) in
  Array.iteri
    (fun i _ ->
      let o = outcome out i in
      checkb "retried to success" true (o.Pool.result = Ok i);
      checki "two attempts" 2 o.Pool.attempts)
    (Array.make 8 ());
  (* Zero retries: the failure is final. *)
  let always_fail _ = failwith "broken" in
  let out = Pool.map ~jobs:1 ~retries:0 always_fail [| 0 |] in
  checkb "failure recorded" true (Result.is_error (outcome out 0).Pool.result);
  checki "single attempt" 1 (outcome out 0).Pool.attempts;
  (* Exhausted retries: retries+1 attempts, still an error (keep the
     quarantine threshold out of the way to observe pure retry). *)
  let out = Pool.map ~jobs:1 ~retries:3 ~quarantine_after:10 always_fail [| 0 |] in
  checki "retries exhausted" 4 (outcome out 0).Pool.attempts;
  checkb "not quarantined below threshold" true
    (not (outcome out 0).Pool.quarantined)

let test_pool_progress_callback () =
  let seen = ref 0 in
  let fails = ref 0 in
  let f i = if i mod 3 = 0 then failwith "x" else i in
  let _ =
    Pool.map ~jobs:4 ~retries:0
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
    (fun (a : Runner.result) (b : Runner.result) ->
      checks "same run_id" a.Runner.run_id b.Runner.run_id;
      (* Byte-identical: the serialized metric lists match exactly. *)
      let serialize r =
        String.concat ";"
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%.17g" k v)
             r.Runner.metrics)
      in
      checks "byte-identical metrics" (serialize a) (serialize b))
    run1.Campaign.results run4.Campaign.results

let test_campaign_retry_and_status () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ] ~seeds:[ 0; 1 ] ()
  in
  (* Injected runner: every point fails once, one point fails always. *)
  let mu = Mutex.create () in
  let attempts = Hashtbl.create 8 in
  let run (p : Spec.point) =
    let id = Spec.run_id p in
    let n =
      Mutex.protect mu (fun () ->
          let n = (try Hashtbl.find attempts id with Not_found -> 0) + 1 in
          Hashtbl.replace attempts id n;
          n)
    in
    if p.Spec.seed = 1 && p.Spec.mode = Mode.Hw_svt then failwith "always-broken";
    if n = 1 then failwith "flaky-once";
    [ ("value", float_of_int p.Spec.seed) ]
  in
  let o = Campaign.execute ~jobs:2 ~retries:1 ~run spec in
  checki "three points recover" 3 o.Campaign.ok;
  checki "one point stays failed" 1 o.Campaign.failed;
  List.iter
    (fun (r : Runner.result) ->
      match r.Runner.status with
      | Runner.Run_ok -> checki "ok after retry" 2 r.Runner.attempts
      | Runner.Run_failed msg ->
          checkb "exhausted retries" true (r.Runner.attempts = 2);
          checkb "message kept" true
            (String.length msg > 0
            && String.exists (fun _ -> true) msg)
      | Runner.Run_timeout -> Alcotest.fail "unexpected timeout"
      | Runner.Run_quarantined _ -> Alcotest.fail "unexpected quarantine")
    o.Campaign.results

let test_pool_timeout_detection () =
  let f _ =
    ignore (Unix.sleepf 0.05);
    42
  in
  let out = Pool.map ~jobs:1 ~timeout_s:0.01 f [| 0 |] in
  let o = outcome out 0 in
  (* Successful-but-slow keeps its value: the timeout is a status, not
     a reason to discard finished work. *)
  checkb "late value retained" true (o.Pool.result = Ok 42);
  checkb "flagged timed out" true o.Pool.timed_out;
  checki "timeouts are not retried" 1 o.Pool.attempts

(* --- Ledger -------------------------------------------------------------- *)

let temp_ledger () = Filename.temp_file "svt_ledger" ".jsonl"

let sample_results () =
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

let test_ledger_round_trip () =
  let path = temp_ledger () in
  let entries = List.map Ledger.entry_of_result (sample_results ()) in
  Ledger.write path entries;
  (match Ledger.load path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      checki "entry count" (List.length entries) (List.length loaded);
      List.iter2
        (fun (a : Ledger.entry) (b : Ledger.entry) ->
          checks "run_id" a.Ledger.run_id b.Ledger.run_id;
          checkb "point" true (a.Ledger.point = b.Ledger.point);
          checks "status" a.Ledger.status b.Ledger.status;
          checki "attempts" a.Ledger.attempts b.Ledger.attempts;
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
  Ledger.write path entries;
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
      attempts = 1;
      wall_s = 0.0;
      metrics = [ ("per_op_us", 2.4) ];
      data = [];
    }
  in
  let line1 = Ledger.line_of_entry_crc e in
  match Ledger.entry_of_line line1 with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      checkb "ooh point survives" true (e'.Ledger.point = point);
      checks "ooh row byte-stable" line1 (Ledger.line_of_entry_crc e')

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
      attempts = 1;
      wall_s = 0.0;
      metrics = [ ("per_op_us", 2.4) ];
      data = [];
    }
  in
  (* x86 rows keep the v3 wire format byte-for-byte: no arch key *)
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let x86_line = Ledger.line_of_entry_crc (entry x86) in
  checkb "x86 row has no arch field" false (contains_sub x86_line "arch");
  (* an ARM row round-trips byte-stably with its arch field *)
  let arm_line = Ledger.line_of_entry_crc (entry arm) in
  match Ledger.entry_of_line arm_line with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      checkb "arm point survives" true (e'.Ledger.point = arm);
      checks "arm row byte-stable" arm_line (Ledger.line_of_entry_crc e')

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
           Ledger.line_of_entry_crc
             { (Ledger.entry_of_result r) with Ledger.wall_s = 0.0 })
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

let test_ledger_diff () =
  let entries = List.map Ledger.entry_of_result (sample_results ()) in
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

module Journal = Svt_campaign.Journal

let test_crc_lines () =
  let entries = List.map Ledger.entry_of_result (sample_results ()) in
  List.iter
    (fun (e : Ledger.entry) ->
      let line = Ledger.line_of_entry_crc e in
      (match Ledger.strip_crc line with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("good line rejected: " ^ msg));
      (match Ledger.entry_of_line line with
      | Ok e' -> checks "run_id survives crc" e.Ledger.run_id e'.Ledger.run_id
      | Error msg -> Alcotest.fail msg);
      (* Flip one payload byte: the checksum must catch it. *)
      let corrupt = Bytes.of_string line in
      Bytes.set corrupt 3 '!';
      checkb "bit flip detected" true
        (Result.is_error (Ledger.strip_crc (Bytes.to_string corrupt))))
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
  let entries = List.map Ledger.entry_of_result (sample_results ()) in
  let entries = entries @ entries in
  Journal.rewrite path entries;
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
      r.Ledger.salvaged;
    checki "salvaged = |entries|" r.Ledger.salvaged
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
        (r.Ledger.dropped_bytes > 0 || r.Ledger.error <> None)
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
      attempts = 1;
      wall_s = 0.125;
      metrics = List.mapi (fun i v -> (Printf.sprintf "m%02d" i, v)) values;
      data = [];
    }
  in
  let line1 = Ledger.line_of_entry_crc e in
  match Ledger.entry_of_line line1 with
  | Error msg -> Alcotest.fail msg
  | Ok e' ->
      let line2 = Ledger.line_of_entry_crc e' in
      checks "write/parse/write is byte-stable" line1 line2

let test_journal_checkpointing () =
  let path = temp_ledger () in
  Sys.remove path;
  let entries = List.map Ledger.entry_of_result (sample_results ()) in
  let j = Journal.create ~checkpoint_every:100 path in
  List.iter (Journal.append j) entries;
  (* Not yet flushed: the file may be empty, but close must flush. *)
  Journal.close j;
  let r = Ledger.recover path in
  checki "all rows durable after close" (List.length entries) r.Ledger.salvaged;
  (* Append mode: a second journal continues the file. *)
  Journal.with_journal path (fun j -> List.iter (Journal.append j) entries);
  checki "appended" (2 * List.length entries) (Ledger.recover path).Ledger.salvaged;
  (* Atomic rewrite replaces content. *)
  Journal.rewrite path entries;
  checki "rewrite is canonical" (List.length entries)
    (Ledger.recover path).Ledger.salvaged;
  Sys.remove path

(* --- Pool supervision ----------------------------------------------------- *)

let test_pool_quarantine () =
  let always_fail _ = failwith "deterministic-crash" in
  let out = Pool.map ~jobs:1 ~retries:10 ~quarantine_after:3 always_fail [| 0 |] in
  let o = outcome out 0 in
  checkb "error kept" true (Result.is_error o.Pool.result);
  checkb "quarantined" true o.Pool.quarantined;
  checki "pulled after K consecutive failures" 3 o.Pool.attempts

let test_pool_fatal_not_retried () =
  let fatal_exn = Svt_engine.Simulator.Budget_exhausted
      { events = 7; now = Svt_engine.Time.zero;
        fuel = Svt_engine.Simulator.Fuel_events 7 } in
  let f _ = raise fatal_exn in
  let out =
    Pool.map ~jobs:1 ~retries:5
      ~fatal:(function Svt_engine.Simulator.Budget_exhausted _ -> true | _ -> false)
      f [| 0 |]
  in
  let o = outcome out 0 in
  checki "fatal means one attempt" 1 o.Pool.attempts;
  checkb "not quarantined" true (not o.Pool.quarantined)

let test_pool_callback_crash_isolated () =
  (* A hostile on_result must not kill the worker domain (the old code
     deadlocked Domain.join) nor lose the other tasks' outcomes. *)
  let f x = x + 1 in
  let out =
    Pool.map ~jobs:4 ~retries:0
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
  checkb "full run not early" true (not out.Pool.stopped_early);
  (* Worker stats exist and carry heartbeats. *)
  checkb "workers reported" true (out.Pool.workers <> []);
  List.iter
    (fun (w : Pool.worker_stats) ->
      checkb "heartbeat stamped" true (w.Pool.last_beat > 0.0))
    out.Pool.workers

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

(* The deliberately hung workload: an unbounded reflection loop that only
   the simulator fuel budget can end, surfacing as a timeout row. *)
let test_fuel_budget_cuts_hung_workload () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline ] ~workloads:[ "spin" ]
      ~levels:[ Svt_core.System.L2_nested ] ()
  in
  let o =
    Campaign.execute ~jobs:1 ~retries:3
      ~run:(fun p -> Runner.exec ~max_sim_events:20_000 p)
      spec
  in
  checki "hung run recorded" 1 (List.length o.Campaign.results);
  checki "as a timeout" 1 o.Campaign.timeout;
  checki "timeout exit code" 1 (Campaign.exit_code o);
  let r = List.hd o.Campaign.results in
  (match r.Runner.status with
  | Runner.Run_timeout -> ()
  | s -> Alcotest.fail ("expected timeout, got " ^ Runner.status_name s));
  checki "fuel exhaustion is fatal: no retries" 1 r.Runner.attempts;
  checkb "fuel counter in metrics" true
    (List.assoc "sim_events" r.Runner.metrics = 20_000.0);
  checkb "budget recorded" true
    (List.assoc "budget.max_events" r.Runner.metrics = 20_000.0)

(* trace and profile drive one stack, so they accept only the stack-shaped
   workloads; asking one stack to run a host-shaped workload says why. *)
let test_host_shaped_workloads () =
  checkb "registry = stack-shaped + host-shaped" true
    (Runner.workload_names
    = Runner.stack_workload_names @ [ "consolidate"; "cluster" ]);
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

(* --- Telemetry heartbeats in the ledger ----------------------------------- *)

module Heartbeat = Svt_campaign.Heartbeat

(* Heartbeat rows are ordinary ledger entries (workload "telemetry") and
   must survive the same crash-recovery path as result rows: write a mix
   of run rows and heartbeats, tear the journal mid-line, and require
   [Ledger.recover] to hand back every heartbeat whose line text survived
   the cut — with source tag and metric payload intact. *)
let test_heartbeat_recover_torn_journal () =
  let path = temp_ledger () in
  Sys.remove path;
  let runs = List.map Ledger.entry_of_result (sample_results ()) in
  let hb seq =
    Heartbeat.entry ~source:"sweep" ~seq
      [ ("rows", float_of_int (seq * 10)); ("ok", float_of_int (seq * 9)) ]
  in
  (* run; hb 0; run; hb 1 — heartbeats interleave with result rows. *)
  let entries =
    match runs with
    | [ a; b ] -> [ a; hb 0; b; hb 1 ]
    | _ -> Alcotest.fail "expected 2 sample results"
  in
  Journal.rewrite path entries;
  (* Clean recovery first: both heartbeats parse back and identify. *)
  let r = Ledger.recover path in
  checki "all rows salvaged" 4 r.Ledger.salvaged;
  let hbs = List.filter Heartbeat.is_heartbeat r.Ledger.entries in
  checki "both heartbeats identified" 2 (List.length hbs);
  List.iteri
    (fun i (e : Ledger.entry) ->
      checkb "source tag survives" true (Heartbeat.source e = Some "sweep");
      checki "seq carried in seed" i e.Ledger.point.Spec.seed;
      checkb "metrics survive" true
        (Ledger.metric e "rows" = float_of_int (i * 10)
        && Ledger.metric e "ok" = float_of_int (i * 9)))
    hbs;
  checkb "run rows not misclassified" true
    (not (List.exists Heartbeat.is_heartbeat runs));
  (* Tear the final heartbeat's line mid-row, as a crash would. *)
  let bytes = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (String.length bytes - 9));
  close_out oc;
  let r = Ledger.recover path in
  checki "torn row dropped, prefix kept" 3 r.Ledger.salvaged;
  checkb "damage reported" true (r.Ledger.dropped_bytes > 0);
  (match List.filter Heartbeat.is_heartbeat r.Ledger.entries with
  | [ survivor ] ->
      checkb "surviving heartbeat intact" true
        (Heartbeat.source survivor = Some "sweep"
        && Ledger.metric survivor "rows" = 0.0)
  | hbs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 surviving heartbeat, got %d"
           (List.length hbs)));
  Sys.remove path

(* End-to-end: a deterministic sweep with --telemetry-every emits
   heartbeat rows into the ledger, and the canonical clean-completion
   rewrite keeps them after the result rows. *)
let test_campaign_emits_heartbeats () =
  let spec =
    Spec.cartesian ~modes:[ Mode.Baseline; Mode.Hw_svt ] ~seeds:[ 0; 1 ] ()
  in
  let path = temp_ledger () in
  Sys.remove path;
  let o =
    Campaign.execute ~jobs:1 ~deterministic:true ~ledger:path
      ~telemetry_every:2 ~run:det_run spec
  in
  checki "all ok" 4 o.Campaign.ok;
  (match Ledger.load path with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      let hbs, results = List.partition Heartbeat.is_heartbeat rows in
      checki "result rows" 4 (List.length results);
      checki "one heartbeat per 2 rows" 2 (List.length hbs);
      List.iter
        (fun (e : Ledger.entry) ->
          checkb "tagged as sweep telemetry" true
            (Heartbeat.source e = Some "sweep");
          checkb "counts rows" true (Ledger.metric e "rows" > 0.0);
          checkb "deterministic: no wall-clock fields" true
            (Float.is_nan (Ledger.metric e "elapsed_s")))
        hbs);
  (* Heartbeats fold results along the spec-order frontier, so the
     health trace must not depend on the worker count. *)
  let path2 = temp_ledger () in
  Sys.remove path2;
  let _ =
    Campaign.execute ~jobs:2 ~deterministic:true ~ledger:path2
      ~telemetry_every:2 ~run:det_run spec
  in
  checks "heartbeats identical across jobs" (read_file path) (read_file path2);
  Sys.remove path2;
  Sys.remove path

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
          Alcotest.test_case "zip" `Quick test_zip;
          Alcotest.test_case "run_id stability" `Quick
            test_run_id_stable_across_orderings;
          Alcotest.test_case "mode round trip" `Quick test_mode_round_trip;
          Alcotest.test_case "axis grammar" `Quick test_axis_grammar;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick test_pool_orders_results;
          Alcotest.test_case "retry" `Quick test_pool_retry;
          Alcotest.test_case "progress callback" `Quick
            test_pool_progress_callback;
          Alcotest.test_case "timeout detection" `Quick
            test_pool_timeout_detection;
          Alcotest.test_case "quarantine after K failures" `Quick
            test_pool_quarantine;
          Alcotest.test_case "fatal errors skip retry" `Quick
            test_pool_fatal_not_retried;
          Alcotest.test_case "callback crash isolated" `Quick
            test_pool_callback_crash_isolated;
          Alcotest.test_case "row limit stops early" `Quick
            test_pool_stop_after;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Quick
            test_seq_parallel_identical;
          Alcotest.test_case "retry and status" `Quick
            test_campaign_retry_and_status;
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
      ( "telemetry",
        [
          Alcotest.test_case "heartbeats recover from torn journal" `Quick
            test_heartbeat_recover_torn_journal;
          Alcotest.test_case "sweep emits heartbeat rows" `Quick
            test_campaign_emits_heartbeats;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "round trip" `Quick test_ledger_round_trip;
          Alcotest.test_case "legacy/ooh mode compat" `Quick
            test_ledger_mode_compat;
          Alcotest.test_case "arch compat (schema v4)" `Quick
            test_ledger_arch_compat;
          Alcotest.test_case "arch axis byte-deterministic across jobs" `Quick
            test_ledger_arch_axis_jobs_deterministic;
          Alcotest.test_case "rejects garbage" `Quick test_ledger_rejects_garbage;
          Alcotest.test_case "diff" `Quick test_ledger_diff;
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
