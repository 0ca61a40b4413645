(* Tests for the observability layer: probe/null-sink semantics, span
   nesting and ordering on a real nested run, ring wraparound of the
   bounded timeline sink, Chrome-trace JSON escaping, the ledger bridge
   round trip, and the null-sink overhead guard. *)

module Time = Svt_engine.Time
module Span = Svt_obs.Span
module Probe = Svt_obs.Probe
module Timeline = Svt_obs.Timeline
module Chrome_trace = Svt_obs.Chrome_trace
module Export = Svt_obs.Export
module Recorder = Svt_obs.Recorder
module Mode = Svt_core.Mode
module System = Svt_core.System
module Guest = Svt_core.Guest
module Spec = Svt_campaign.Spec
module Runner = Svt_campaign.Runner
module Ledger = Svt_campaign.Ledger

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- probe basics -------------------------------------------------------- *)

let test_probe_off_by_default () =
  let p = Probe.create ~clock:(fun () -> Time.zero) () in
  checkb "no subscriber -> off" false (Probe.is_on p);
  let hits = ref 0 in
  Probe.subscribe p (fun _ -> incr hits);
  checkb "subscriber -> on" true (Probe.is_on p);
  Probe.set_armed p false;
  checkb "disarmed -> off" false (Probe.is_on p);
  Probe.span p Span.Vm_exit ~vcpu:0 ~level:2 ~start:Time.zero ();
  checki "disarmed emits nothing" 0 !hits;
  Probe.set_armed p true;
  Probe.span p Span.Vm_exit ~vcpu:0 ~level:2 ~start:Time.zero ();
  checki "armed emits" 1 !hits

let test_null_probe_sealed () =
  checkb "null off" false (Probe.is_on Probe.null);
  checkb "null subscribe raises" true
    (try
       Probe.subscribe Probe.null (fun _ -> ());
       false
     with _ -> true)

let test_wrap_tags_lazy () =
  let p = Probe.create ~clock:(fun () -> Time.zero) () in
  let evaluated = ref false in
  let r =
    Probe.wrap p Span.Vm_exit ~vcpu:0 ~level:2
      ~tags:(fun () ->
        evaluated := true;
        [])
      (fun () -> 42)
  in
  checki "wrap returns thunk value" 42 r;
  checkb "tags not built when off" false !evaluated

(* --- span nesting / ordering on a real run ------------------------------ *)

let run_small_nested mode =
  let sys =
    System.of_config (System.Config.make ~mode ~level:System.L2_nested ())
  in
  let tl = Recorder.enable_timeline (System.obs sys) in
  Svt_hyp.Vcpu.spawn_program (System.vcpu0 sys) (fun v ->
      for _ = 1 to 5 do
        ignore (Guest.cpuid v ~leaf:1)
      done);
  System.run sys;
  (sys, tl)

let test_nesting_and_ordering () =
  let _sys, tl = run_small_nested Mode.Baseline in
  checkb "saw vm-exits" true (Timeline.count tl Span.Vm_exit >= 5);
  checkb "saw transforms" true (Timeline.count tl Span.Vmcs_transform >= 10);
  let spans = Timeline.spans tl ~vcpu:0 in
  let exits = List.filter (fun s -> s.Span.kind = Span.Vm_exit) spans in
  (* every non-exit protocol span lies inside some vm-exit episode *)
  List.iter
    (fun s ->
      match s.Span.kind with
      | Span.Vmcs_transform | Span.World_switch | Span.Svt_resume ->
          checkb
            (Fmt.str "%s enclosed by a vm-exit" (Span.kind_name s.Span.kind))
            true
            (List.exists (fun e -> Span.encloses e s) exits)
      | _ -> ())
    spans;
  (* spans arrive in emission order: non-decreasing stop times *)
  let ok = ref true in
  let prev = ref Time.zero in
  List.iter
    (fun s ->
      if Time.(s.Span.stop < !prev) then ok := false;
      prev := s.Span.stop)
    spans;
  checkb "stop times non-decreasing" true !ok;
  (* episode spans carry their identity tags *)
  List.iter
    (fun e ->
      checkb "reason tag" true (Span.tag e "reason" <> None);
      checkb "mode tag" true (Span.tag e "mode" = Some "baseline"))
    exits

let test_sw_svt_ring_spans () =
  let _sys, tl = run_small_nested Mode.sw_svt_default in
  checkb "ring sends" true (Timeline.count tl Span.Ring_send > 0);
  checkb "ring recvs" true (Timeline.count tl Span.Ring_recv > 0);
  checkb "stalls" true (Timeline.count tl Span.Svt_stall > 0);
  (* each episode posts CMD_VM_TRAP and receives CMD_VM_RESUME *)
  checkb "sends >= exits" true
    (Timeline.count tl Span.Ring_send >= Timeline.count tl Span.Vm_exit)

(* --- ring wraparound ----------------------------------------------------- *)

let synthetic_span i =
  {
    Span.kind = Span.Vm_exit;
    vcpu = 0;
    level = 2;
    core = -1;
    ctx = -1;
    start = Time.of_ns (i * 100);
    stop = Time.of_ns ((i * 100) + 50);
    tags = [ ("i", string_of_int i) ];
  }

let test_ring_wraparound () =
  let tl = Timeline.create ~capacity:4 () in
  for i = 1 to 6 do
    Timeline.sink tl (synthetic_span i)
  done;
  checki "recorded counts everything" 6 (Timeline.recorded tl ~vcpu:0);
  checki "histograms see everything" 6 (Timeline.count tl Span.Vm_exit);
  let retained = Timeline.spans tl ~vcpu:0 in
  checki "ring keeps capacity" 4 (List.length retained);
  Alcotest.(check (list string))
    "oldest-first, oldest dropped"
    [ "3"; "4"; "5"; "6" ]
    (List.map (fun s -> Option.get (Span.tag s "i")) retained)

(* --- Chrome trace JSON --------------------------------------------------- *)

let json_str = function Ledger.Str s -> s | _ -> Alcotest.fail "expected Str"

let test_chrome_json_escaping () =
  let ct = Chrome_trace.create () in
  let nasty = "a\"b\nc\\d\te\r\x01f" in
  Chrome_trace.sink ct
    {
      Span.kind = Span.Vm_exit;
      vcpu = 0;
      level = 2;
      core = -1;
      ctx = -1;
      start = Time.of_ns 1500;
      stop = Time.of_ns 2500;
      tags = [ ("weird", nasty) ];
    };
  let s = Chrome_trace.to_string ct in
  match Ledger.parse_json s with
  | Ledger.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Ledger.Arr events ->
          let span_events =
            List.filter_map
              (function
                | Ledger.Obj ev
                  when List.assoc_opt "ph" ev = Some (Ledger.Str "X") ->
                    Some ev
                | _ -> None)
              events
          in
          checki "one span event" 1 (List.length span_events);
          let ev = List.hd span_events in
          Alcotest.(check string)
            "name" "vm-exit"
            (json_str (List.assoc "name" ev));
          (match List.assoc "args" ev with
          | Ledger.Obj args ->
              Alcotest.(check string)
                "nasty tag round-trips" nasty
                (json_str (List.assoc "weird" args))
          | _ -> Alcotest.fail "args not an object")
      | _ -> Alcotest.fail "traceEvents not an array")
  | _ -> Alcotest.fail "not an object"

(* --- ledger bridge round trip -------------------------------------------- *)

let test_ledger_round_trip () =
  let _sys, tl = run_small_nested Mode.Baseline in
  let obs_fields = Export.fields tl in
  checkb "exports fields" true (obs_fields <> []);
  let point = Spec.point ~workload:"cpuid" Mode.Baseline in
  let entry =
    {
      Ledger.run_id = Spec.run_id point;
      point;
      status = "ok";
      error = None;
      attempts = 1;
      wall_s = 0.01;
      metrics = ("per_op_us", 10.3) :: obs_fields;
      data = [];
    }
  in
  let path = Filename.temp_file "obs_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ledger.write path [ entry ];
      let loaded = List.hd (Ledger.load_exn path) in
      List.iter
        (fun (k, v) ->
          Alcotest.(check (float 1e-9)) k v (Ledger.metric loaded k))
        obs_fields;
      (* the flattened fields recover the original summaries *)
      let recovered = Export.summaries_of_fields loaded.Ledger.metrics in
      let original = Timeline.summaries tl in
      checki "summary count" (List.length original) (List.length recovered);
      List.iter2
        (fun (o : Timeline.summary) (r : Timeline.summary) ->
          checkb "kind" true (o.Timeline.kind = r.Timeline.kind);
          checki "count" o.Timeline.count r.Timeline.count;
          checki "p99" o.Timeline.p99_ns r.Timeline.p99_ns;
          checki "total" o.Timeline.total_ns r.Timeline.total_ns)
        original recovered)

(* --- coverage sink -------------------------------------------------------- *)

module Coverage = Svt_obs.Coverage

let span ?(tags = []) kind =
  {
    Span.kind;
    vcpu = 0;
    level = 2;
    core = -1;
    ctx = -1;
    start = Time.zero;
    stop = Time.zero;
    tags;
  }

let test_coverage_slot_keying () =
  (* the slot keys on kind + discriminating tags; numeric payload tags
     and timing must not affect it *)
  let a = span Span.Vm_exit ~tags:[ ("reason", "cpuid"); ("vector", "81") ] in
  let b = span Span.Vm_exit ~tags:[ ("reason", "cpuid"); ("vector", "255") ] in
  let c = span Span.Vm_exit ~tags:[ ("reason", "hlt") ] in
  checki "payload tags ignored" (Coverage.slot_of_span a)
    (Coverage.slot_of_span b);
  checkb "reason discriminates" true
    (Coverage.slot_of_span a <> Coverage.slot_of_span c);
  checkb "kind discriminates" true
    (Coverage.slot_of_span (span Span.Vm_exit)
    <> Coverage.slot_of_span (span Span.World_switch))

(* The 64-bit FNV-1a slot hash the native-int one must agree with. *)
let reference_slot (sp : Span.t) =
  let prime = 0x100000001b3L in
  let fold h s =
    let h = ref h in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
      s;
    Int64.mul (Int64.logxor !h 0x1fL) prime
  in
  let h = fold 0xcbf29ce484222325L (Span.kind_name sp.Span.kind) in
  let h =
    List.fold_left
      (fun h tag -> match Span.tag sp tag with None -> h | Some v -> fold h v)
      h
      [ "reason"; "mode"; "leg"; "cause"; "dir"; "cmd"; "outcome" ]
  in
  Int64.to_int (Int64.logand h (Int64.of_int (Coverage.size - 1)))

let prop_coverage_slot_matches_int64 =
  let gen =
    let open QCheck.Gen in
    let str = string_size ~gen:char (int_bound 24) in
    let key =
      oneof
        [ oneofl [ "reason"; "mode"; "leg"; "cause"; "dir"; "cmd"; "outcome"; "vector" ]; str ]
    in
    pair (oneofl Span.all_kinds) (list_size (int_bound 6) (pair key str))
  in
  QCheck.Test.make ~name:"slot hash = 64-bit FNV-1a reference" ~count:500
    (QCheck.make gen ~print:(fun (k, tags) ->
         Span.kind_name k ^ " " ^ String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) tags)))
    (fun (kind, tags) ->
      let sp = span kind ~tags in
      Coverage.slot_of_span sp = reference_slot sp)

let test_coverage_merge_and_hex () =
  let a = Coverage.create () and b = Coverage.create () in
  Coverage.mark a 1;
  Coverage.mark a 100;
  Coverage.mark b 100;
  Coverage.mark b 8191;
  checkb "b adds coverage over a" true (Coverage.adds_coverage ~global:a b);
  checki "one new bit merged" 1 (Coverage.merge_into ~into:a b);
  checki "popcount" 3 (Coverage.bits a);
  checkb "merge is idempotent" false (Coverage.adds_coverage ~global:a b);
  checkb "membership" true (Coverage.mem a 8191 && not (Coverage.mem a 2));
  let back = Coverage.of_hex (Coverage.to_hex a) in
  checkb "hex round trip" true (Coverage.equal a back)

let test_coverage_attaches_to_probe () =
  (* riding a real probe: every emitted span marks a slot *)
  let p = Probe.create ~clock:(fun () -> Time.zero) () in
  let cov = Coverage.create () in
  Coverage.attach cov p;
  Probe.span p Span.Vm_exit ~vcpu:0 ~level:2
    ~tags:[ ("reason", "cpuid") ] ~start:Time.zero ();
  Probe.span p Span.Vm_exit ~vcpu:0 ~level:2
    ~tags:[ ("reason", "cpuid") ] ~start:Time.zero ();
  Probe.span p Span.Vm_exit ~vcpu:0 ~level:2 ~tags:[ ("reason", "hlt") ]
    ~start:Time.zero ();
  checki "three spans observed" 3 (Coverage.marks cov);
  checki "two distinct paths" 2 (Coverage.bits cov)

(* --- overhead guard ------------------------------------------------------ *)

(* The safety property: installing sinks never changes simulated results,
   and the default null-sink probes cost nothing measurable next to a
   probe-disarmed run. *)

let point = Spec.point ~workload:"cpuid" Mode.Baseline

let run_with prepare =
  let sys = Runner.make_system point in
  prepare sys;
  let t0 = Unix.gettimeofday () in
  let metrics = Runner.workload_metrics point sys in
  (metrics, Unix.gettimeofday () -. t0)

let test_sinks_do_not_perturb () =
  let bare, _ = run_with (fun _ -> ()) in
  let observed, _ =
    run_with (fun sys ->
        ignore (Recorder.enable_timeline (System.obs sys));
        ignore (Recorder.enable_chrome (System.obs sys)))
  in
  checki "same metric count" (List.length bare) (List.length observed);
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "metric name" k k';
      checkb (k ^ " bit-identical") true (Float.equal v v'))
    bare observed

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let test_null_sink_overhead () =
  (* warm-up *)
  ignore (run_with (fun _ -> ()));
  let time prepare =
    median (List.init 5 (fun _ -> snd (run_with prepare)))
  in
  let disarmed = time (fun sys -> Recorder.set_enabled (System.obs sys) false) in
  let null_sink = time (fun _ -> ()) in
  (* 5% relative budget plus absolute slack for timer noise on a
     sub-millisecond workload *)
  checkb
    (Printf.sprintf "null sink %.4fs within budget of disarmed %.4fs"
       null_sink disarmed)
    true
    (null_sink <= (disarmed *. 1.05) +. 0.005)

(* --- wrap exception safety ----------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_wrap_exception_safe () =
  let p = Probe.create ~clock:(fun () -> Time.zero) () in
  let seen = ref [] in
  Probe.subscribe p (fun s -> seen := s :: !seen);
  let raised =
    try
      ignore
        (Probe.wrap p Span.Vm_exit ~vcpu:0 ~level:2
           ~tags:(fun () -> [ ("reason", "cpuid") ])
           (fun () -> failwith "boom")
          : int);
      false
    with Failure m -> m = "boom"
  in
  checkb "exception re-raised" true raised;
  checki "span still emitted" 1 (List.length !seen);
  let s = List.hd !seen in
  checkb "kind preserved" true (s.Span.kind = Span.Vm_exit);
  (match Span.tag s "error" with
  | Some e ->
      checkb "error tag carries the exception" true
        (contains e "boom")
  | None -> Alcotest.fail "no error tag on the span");
  checkb "computed tags still present" true
    (Span.tag s "reason" = Some "cpuid")

(* --- self-profiler (deterministic fake clocks) --------------------------- *)

module Profiler = Svt_obs.Profiler
module Simulator = Svt_engine.Simulator

let timed_span ?(tags = []) ~start ~stop kind =
  {
    Span.kind;
    vcpu = 0;
    level = 2;
    core = -1;
    ctx = -1;
    start = Time.of_ns start;
    stop = Time.of_ns stop;
    tags;
  }

let find_row prof path =
  match List.find_opt (fun r -> r.Profiler.path = path) (Profiler.rows prof) with
  | Some r -> r
  | None ->
      Alcotest.fail
        (Printf.sprintf "no row %s (have: %s)" path
           (String.concat " | "
              (List.map (fun r -> r.Profiler.path) (Profiler.rows prof))))

let checkf = Alcotest.(check (float 1e-9))

let test_profiler_attribution () =
  let now = ref 0.0 and words = ref 0.0 in
  let prof =
    Profiler.create ~clock:(fun () -> !now) ~words:(fun () -> !words) ()
  in
  Profiler.start prof;
  (* child closes first (post-order): 10 us of host work, 100 words *)
  now := 10e-6;
  words := 100.0;
  Profiler.sink prof
    (timed_span Span.Vmcs_transform ~start:100 ~stop:200
       ~tags:[ ("leg", "entry") ]);
  (* the enclosing vm-exit closes 5 us later and adopts the child *)
  now := 15e-6;
  words := 140.0;
  Profiler.sink prof
    (timed_span Span.Vm_exit ~start:0 ~stop:500 ~tags:[ ("reason", "cpuid") ]);
  (* trailing host work before stop lands under engine;other *)
  now := 18e-6;
  words := 150.0;
  Profiler.stop prof;
  checkf "wall" 18e-6 (Profiler.wall_s prof);
  checkf "exclusive totals telescope to wall" (Profiler.wall_s prof)
    (Profiler.exclusive_total_s prof);
  checki "spans" 2 (Profiler.spans prof);
  let child = find_row prof "vcpu0;vm-exit:cpuid;vmcs-transform:entry" in
  checkf "child exclusive ns" 10_000.0 child.Profiler.excl_ns;
  checkf "child exclusive bytes"
    (100.0 *. float_of_int (Sys.word_size / 8))
    child.Profiler.excl_bytes;
  checki "child calls" 1 child.Profiler.calls;
  let parent = find_row prof "vcpu0;vm-exit:cpuid" in
  checkf "parent exclusive ns" 5_000.0 parent.Profiler.excl_ns;
  checkf "parent inclusive ns" 15_000.0 parent.Profiler.incl_ns;
  let other = find_row prof "engine;other" in
  checkf "trailing segment" 3_000.0 other.Profiler.excl_ns;
  (* folded output: child nested under parent, exclusive integer values *)
  let folded = Profiler.folded prof in
  checkb "folded parent line" true
    (contains folded "vcpu0;vm-exit:cpuid 5000\n");
  checkb "folded child line" true
    (contains folded
       "vcpu0;vm-exit:cpuid;vmcs-transform:entry 10000\n");
  let alloc = Profiler.folded ~metric:Profiler.Malloc prof in
  checkb "alloc folded child line" true
    (contains alloc
       (Printf.sprintf "vcpu0;vm-exit:cpuid;vmcs-transform:entry %d\n"
          (100 * (Sys.word_size / 8))))

let test_profiler_engine_buckets () =
  let now = ref 0.0 in
  let prof =
    Profiler.create ~clock:(fun () -> !now) ~words:(fun () -> 0.0) ()
  in
  let ob = Profiler.observer prof in
  Profiler.start prof;
  now := 2e-6;
  ob.Simulator.on_event_start ();
  now := 5e-6;
  ob.Simulator.on_event_end ();
  now := 6e-6;
  Profiler.stop prof;
  checki "events counted" 1 (Profiler.events prof);
  checkf "queue bucket" 2_000.0 (find_row prof "engine;queue").Profiler.excl_ns;
  checkf "dispatch bucket" 3_000.0
    (find_row prof "engine;dispatch").Profiler.excl_ns;
  checkf "other bucket" 1_000.0 (find_row prof "engine;other").Profiler.excl_ns;
  checkf "telescopes" (Profiler.wall_s prof) (Profiler.exclusive_total_s prof)

let test_profiler_does_not_perturb () =
  let bare, _ = run_with (fun _ -> ()) in
  let prof = Profiler.create () in
  let observed, _ =
    run_with (fun sys ->
        Probe.subscribe (System.probe sys) (Profiler.sink prof);
        Simulator.set_observer (System.sim sys)
          (Some (Profiler.observer prof));
        Profiler.start prof)
  in
  Profiler.stop prof;
  checki "same metric count" (List.length bare) (List.length observed);
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "metric name" k k';
      checkb (k ^ " bit-identical under profiler") true (Float.equal v v'))
    bare observed;
  checkb "profiler saw spans" true (Profiler.spans prof > 0);
  checkb "profiler saw events" true (Profiler.events prof > 0);
  (* the --validate invariant, on a real run *)
  let wall = Profiler.wall_s prof in
  let drift = abs_float (Profiler.exclusive_total_s prof -. wall) /. wall in
  checkb
    (Printf.sprintf "exclusive sum within 5%% of wall (drift %.4f)" drift)
    true (drift <= 0.05)

(* The whole-region allocation total is exact: a 10,000-cell int list
   is 30,000 words, and the profiler's own bookkeeping adds only a few. *)
let test_profiler_alloc_total_exact () =
  let prof = Profiler.create () in
  Profiler.start prof;
  let l = Sys.opaque_identity (List.init 10_000 Fun.id) in
  Profiler.stop prof;
  checki "list kept" 10_000 (List.length l);
  let words = Profiler.allocated_bytes prof /. float_of_int (Sys.word_size / 8) in
  checkb
    (Printf.sprintf "%.0f words counted for a 30000-word list" words)
    true
    (words >= 30_000.0 && words <= 30_064.0)

(* Active-sink allocation budget (exact allocated-word deltas): with a
   counting sink subscribed the probe must build real spans, but the
   per-span construction cost has a hard ceiling. The workload is
   deterministic, and so is its allocation — only the sink delta is
   under test. Measured exactly it is 234 B/span (span record plus the
   instrumentation sites' tag lists, which are only built when a sink is
   armed); the budget fails a change that makes arming a sink about
   twice as costly per span. *)
let alloc_budget_bytes_per_span = 512.0

let test_counting_sink_alloc_budget () =
  let alloc_of prepare =
    let sys = Runner.make_system point in
    let counted = prepare sys in
    let w0 = Profiler.allocated_words () in
    ignore (Runner.workload_metrics point sys : (string * float) list);
    let words = Profiler.allocated_words () -. w0 in
    (words *. float_of_int (Sys.word_size / 8), counted)
  in
  ignore (alloc_of (fun _ -> ref 0)) (* warm-up *);
  let bare_bytes, _ = alloc_of (fun _ -> ref 0) in
  let sink_bytes, counted =
    alloc_of (fun sys ->
        let n = ref 0 in
        Probe.subscribe (System.probe sys) (fun _ -> incr n);
        n)
  in
  checkb "sink saw spans" true (!counted > 0);
  let per_span = (sink_bytes -. bare_bytes) /. float_of_int !counted in
  checkb
    (Printf.sprintf
       "active sink allocates %.0f B/span (budget %.0f; %d spans)" per_span
       alloc_budget_bytes_per_span !counted)
    true
    (per_span <= alloc_budget_bytes_per_span)

let () =
  Alcotest.run "obs"
    [
      ( "probe",
        [
          Alcotest.test_case "off by default" `Quick test_probe_off_by_default;
          Alcotest.test_case "null sealed" `Quick test_null_probe_sealed;
          Alcotest.test_case "wrap tags lazy" `Quick test_wrap_tags_lazy;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "nesting and ordering" `Quick
            test_nesting_and_ordering;
          Alcotest.test_case "sw-svt ring spans" `Quick test_sw_svt_ring_spans;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        ] );
      ( "chrome",
        [ Alcotest.test_case "json escaping" `Quick test_chrome_json_escaping ] );
      ( "export",
        [ Alcotest.test_case "ledger round trip" `Quick test_ledger_round_trip ] );
      ( "coverage",
        [
          Alcotest.test_case "slot keying" `Quick test_coverage_slot_keying;
          QCheck_alcotest.to_alcotest prop_coverage_slot_matches_int64;
          Alcotest.test_case "merge and hex" `Quick test_coverage_merge_and_hex;
          Alcotest.test_case "probe sink" `Quick test_coverage_attaches_to_probe;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "sinks do not perturb" `Quick
            test_sinks_do_not_perturb;
          Alcotest.test_case "null sink overhead" `Quick
            test_null_sink_overhead;
          Alcotest.test_case "counting-sink alloc budget" `Quick
            test_counting_sink_alloc_budget;
        ] );
      ( "wrap",
        [
          Alcotest.test_case "exception-safe" `Quick test_wrap_exception_safe;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "segment attribution" `Quick
            test_profiler_attribution;
          Alcotest.test_case "engine buckets" `Quick
            test_profiler_engine_buckets;
          Alcotest.test_case "does not perturb" `Quick
            test_profiler_does_not_perturb;
          Alcotest.test_case "allocation total exact" `Quick
            test_profiler_alloc_total_exact;
        ] );
    ]
