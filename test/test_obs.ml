(* Tests for the observability layer: probe/null-sink semantics, span
   nesting and ordering on a real nested run, Chrome-trace JSON escaping,
   the ledger bridge round trip, and the sinks-do-not-perturb guard. *)

module Time = Svt_engine.Time
module Span = Svt_obs.Span
module Probe = Svt_obs.Probe
module Timeline = Svt_obs.Timeline
module Chrome_trace = Svt_obs.Chrome_trace
module Export = Svt_obs.Export
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
  Probe.span p Span.Vm_exit ~vcpu:0 ~level:2 ~start:Time.zero ();
  checki "subscriber sees the span" 1 !hits

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

let run_small_nested ?(prepare = ignore) mode =
  let sys =
    System.of_config (System.Config.make ~mode ~level:System.L2_nested ())
  in
  let tl = Timeline.create () in
  Probe.subscribe (System.probe sys) (Timeline.sink tl);
  prepare sys;
  Svt_hyp.Vcpu.spawn_program (System.vcpu0 sys) (fun v ->
      for _ = 1 to 5 do
        ignore (Guest.cpuid v ~leaf:1)
      done);
  System.run sys;
  (sys, tl)

(* [a]'s interval contains [b]'s on the shared virtual timeline. *)
let encloses (a : Span.t) (b : Span.t) =
  Time.(a.start <= b.start) && Time.(b.stop <= a.stop)

let test_nesting_and_ordering () =
  let seen = ref [] in
  let collect sys =
    Probe.subscribe (System.probe sys) (fun s ->
        if s.Span.vcpu = 0 then seen := s :: !seen)
  in
  let _sys, tl = run_small_nested ~prepare:collect Mode.Baseline in
  checkb "saw vm-exits" true (Timeline.count tl Span.Vm_exit >= 5);
  checkb "saw transforms" true (Timeline.count tl Span.Vmcs_transform >= 10);
  let spans = List.rev !seen in
  let exits = List.filter (fun s -> s.Span.kind = Span.Vm_exit) spans in
  (* every non-exit protocol span lies inside some vm-exit episode *)
  List.iter
    (fun s ->
      match s.Span.kind with
      | Span.Vmcs_transform | Span.World_switch | Span.Svt_resume ->
          checkb
            (Fmt.str "%s enclosed by a vm-exit" (Span.kind_name s.Span.kind))
            true
            (List.exists (fun e -> encloses e s) exits)
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

(* Each side of the rings is drawn on the hardware thread it runs on.
   L0 posts to-svt and receives from-svt on the vCPU's context; under
   smt-sibling placement the SVt-thread receives to-svt and posts
   from-svt on the core's other context. A placement off the core names
   no thread for the SVt-thread, so its spans keep the vCPU's lane. *)
let ring_lanes mode =
  let lanes = Hashtbl.create 4 in
  let collect sys =
    Probe.subscribe (System.probe sys) (fun s ->
        match s.Span.kind with
        | Span.Ring_send | Span.Ring_recv ->
            let key =
              ( Span.kind_name s.Span.kind,
                Option.value ~default:"?" (Span.tag s "dir") )
            in
            let seen = Option.value ~default:[] (Hashtbl.find_opt lanes key) in
            let lane = (s.Span.core, s.Span.ctx) in
            if not (List.mem lane seen) then
              Hashtbl.replace lanes key (lane :: seen)
        | _ -> ())
  in
  let sys, _ = run_small_nested ~prepare:collect mode in
  let v = System.vcpu0 sys in
  (Svt_hyp.Vcpu.core_id v, Svt_hyp.Vcpu.hw_ctx v, lanes)

let test_ring_span_lanes () =
  let lane_list = Alcotest.(list (pair int int)) in
  let core, ctx, lanes = ring_lanes Mode.sw_svt_default in
  let sibling = 1 - ctx in
  List.iter
    (fun (kind, dir, want) ->
      Alcotest.check lane_list
        (Printf.sprintf "smt-sibling %s %s" kind dir)
        [ (core, want) ]
        (Option.value ~default:[] (Hashtbl.find_opt lanes (kind, dir))))
    [ ("ring-send", "to-svt", ctx); ("ring-recv", "from-svt", ctx);
      ("ring-recv", "to-svt", sibling); ("ring-send", "from-svt", sibling) ];
  let core, ctx, lanes =
    ring_lanes (Mode.Sw_svt { wait = Mode.Mwait; placement = Mode.Same_numa_core })
  in
  checki "same-numa-core: all four (kind, dir) pairs seen" 4
    (Hashtbl.length lanes);
  Hashtbl.iter
    (fun (kind, dir) seen ->
      Alcotest.check lane_list
        (Printf.sprintf "same-numa-core %s %s" kind dir)
        [ (core, ctx) ] seen)
    lanes

(* A timeline rides on every campaign run; creating one must cost a few
   words per span kind, not a histogram per kind. A kind's histogram
   appears with its first span. *)
let test_timeline_create_is_small () =
  ignore (Timeline.create ());
  let before = Gc.minor_words () in
  let tl = Timeline.create () in
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "Timeline.create allocates %.0f words (bound 64)" words)
    true (words <= 64.);
  checki "no spans yet" 0 (Timeline.count tl Span.Vm_exit);
  checki "no summaries" 0 (List.length (Timeline.summaries tl))

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
      wall_s = 0.01;
      metrics = ("per_op_us", 10.3) :: obs_fields;
      data = [];
    }
  in
  let path = Filename.temp_file "obs_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Ledger.writer ~crc:false path in
      Ledger.append w entry;
      Ledger.close w;
      let loaded = List.hd (Result.get_ok (Ledger.load path)) in
      List.iter
        (fun (k, v) ->
          Alcotest.(check (float 1e-9)) k v (Ledger.metric loaded k))
        obs_fields)

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

(* The 64-bit FNV-1a slot hash the native-int one must agree with: one
   key part folded in, then the part separator. *)
let reference_fold h s =
  let prime = 0x100000001b3L in
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  Int64.mul (Int64.logxor !h 0x1fL) prime

let reference_offset = 0xcbf29ce484222325L

let reference_slot (sp : Span.t) =
  let h = reference_fold reference_offset (Span.kind_name sp.Span.kind) in
  let h =
    List.fold_left
      (fun h tag -> match Span.tag sp tag with None -> h | Some v -> reference_fold h v)
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

let test_coverage_kind_prefix () =
  (* the per-kind table holds each kind name's whole hash, not just the
     13 bits a slot keeps: native ints agree with the 64-bit hash on all
     but the top bit *)
  List.iter
    (fun k ->
      checki (Span.kind_name k)
        (Int64.to_int (reference_fold reference_offset (Span.kind_name k)))
        (Coverage.kind_prefix k))
    Span.all_kinds

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

(* The safety property: installing sinks never changes simulated
   results. *)

let point = Spec.point ~workload:"cpuid" Mode.Baseline

let run_with prepare =
  let sys = Runner.make_system point in
  prepare sys;
  Runner.workload_metrics point sys

let test_sinks_do_not_perturb () =
  let bare = run_with (fun _ -> ()) in
  let observed =
    run_with (fun sys ->
        Probe.subscribe (System.probe sys) (Timeline.sink (Timeline.create ()));
        Probe.subscribe (System.probe sys)
          (Chrome_trace.sink (Chrome_trace.create ())))
  in
  checki "same metric count" (List.length bare) (List.length observed);
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "metric name" k k';
      checkb (k ^ " bit-identical") true (Float.equal v v'))
    bare observed

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
  now := 7e-6;
  ob.Simulator.on_event_start ();
  now := 8e-6;
  ob.Simulator.on_event_end ();
  now := 9e-6;
  Profiler.stop prof;
  checki "events counted" 2 (Profiler.events prof);
  checkf "setup bucket" 2_000.0 (find_row prof "engine;setup").Profiler.excl_ns;
  checkf "queue bucket" 2_000.0 (find_row prof "engine;queue").Profiler.excl_ns;
  checkf "dispatch bucket" 4_000.0
    (find_row prof "engine;dispatch").Profiler.excl_ns;
  checkf "other bucket" 1_000.0 (find_row prof "engine;other").Profiler.excl_ns;
  checkf "telescopes" (Profiler.wall_s prof) (Profiler.exclusive_total_s prof)

(* The work between [start] and the first event builds the run (devices,
   guest programs); it lands in engine;setup, and engine;queue gets only
   the gaps between events. *)
let test_profiler_setup_bucket () =
  let now = ref 0.0 and words = ref 0.0 in
  let prof =
    Profiler.create ~clock:(fun () -> !now) ~words:(fun () -> !words) ()
  in
  let ob = Profiler.observer prof in
  Profiler.start prof;
  now := 40e-6;
  words := 500.0;
  ob.Simulator.on_event_start ();
  now := 41e-6;
  words := 510.0;
  ob.Simulator.on_event_end ();
  now := 43e-6;
  words := 514.0;
  ob.Simulator.on_event_start ();
  now := 44e-6;
  ob.Simulator.on_event_end ();
  Profiler.stop prof;
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let setup = find_row prof "engine;setup" in
  checkf "ticks before the first event" 40_000.0 setup.Profiler.excl_ns;
  checkf "words before the first event" (500.0 *. word_bytes)
    setup.Profiler.excl_bytes;
  let queue = find_row prof "engine;queue" in
  checkf "queue: the gap between the events" 2_000.0 queue.Profiler.excl_ns;
  checkf "queue words" (4.0 *. word_bytes) queue.Profiler.excl_bytes;
  checkf "telescopes" (Profiler.wall_s prof) (Profiler.exclusive_total_s prof)

(* The sink's own bookkeeping is a segment of its own. A fake clock that
   ticks 1 us and a fake counter that counts 7 words on every read make
   each read the end of one unit of work: a span close reads both twice,
   once to close the span's segment and once when its bookkeeping ends,
   so that one tick per span lands in engine;profiler and nowhere else. *)
let test_profiler_charges_itself () =
  let now = ref 0.0 and words = ref 0.0 in
  let clock () = now := !now +. 1e-6; !now in
  let count () = words := !words +. 7.0; !words in
  let prof = Profiler.create ~clock ~words:count () in
  let ob = Profiler.observer prof in
  Profiler.start prof;
  ob.Simulator.on_event_start ();
  Profiler.sink prof
    (timed_span Span.Vmcs_transform ~start:100 ~stop:200 ~tags:[ ("leg", "entry") ]);
  Profiler.sink prof
    (timed_span Span.Vm_exit ~start:0 ~stop:500 ~tags:[ ("reason", "cpuid") ]);
  ob.Simulator.on_event_end ();
  Profiler.stop prof;
  let self = find_row prof "engine;profiler" in
  checkf "one tick per span" 2_000.0 self.Profiler.excl_ns;
  checkf "its words"
    (2.0 *. 7.0 *. float_of_int (Sys.word_size / 8))
    self.Profiler.excl_bytes;
  (* the segment after each span close starts when its bookkeeping ends *)
  checkf "span after the event start" 1_000.0
    (find_row prof "vcpu0;vm-exit:cpuid;vmcs-transform:entry").Profiler.excl_ns;
  checkf "span after the first span's bookkeeping" 1_000.0
    (find_row prof "vcpu0;vm-exit:cpuid").Profiler.excl_ns;
  checkf "dispatch tail" 1_000.0 (find_row prof "engine;dispatch").Profiler.excl_ns;
  checkf "telescopes" (Profiler.wall_s prof) (Profiler.exclusive_total_s prof)

let test_profiler_does_not_perturb () =
  let bare = run_with (fun _ -> ()) in
  let prof = Profiler.create () in
  let observed =
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

(* A point run under a profiler with the real clock and word counter. *)
let profiled (p : Spec.point) =
  let prof = Profiler.create () in
  let sys = Runner.make_system p in
  Probe.subscribe (System.probe sys) (Profiler.sink prof);
  Simulator.set_observer (System.sim sys) (Some (Profiler.observer prof));
  Profiler.start prof;
  ignore (Runner.workload_metrics p sys : (string * float) list);
  Profiler.stop prof;
  prof

let rr_sw_svt = Spec.point ~workload:"rr" Mode.sw_svt_default

(* The profiler's own garbage per span. Whatever the sink allocates is
   charged to engine;profiler, but the collections it triggers land in
   whichever frame runs next, so a sink that allocates kilobytes per span
   inflates the simulator frames it is meant to measure, and the armed
   run stops resembling the unarmed one. A node and a hash table per span
   with list copies of the pending spans cost about 5,000 B per span
   here; the stack of closed spans costs about 390. *)
let profiler_bytes_per_span_max = 1024.0

let test_profiler_alloc_guard () =
  let prof = profiled rr_sw_svt in
  let per_span =
    (find_row prof "engine;profiler").Profiler.excl_bytes
    /. float_of_int (Profiler.spans prof)
  in
  checkb
    (Printf.sprintf "engine;profiler allocates %.0f B/span (at most %.0f; %d spans)"
       per_span profiler_bytes_per_span_max (Profiler.spans prof))
    true
    (per_span <= profiler_bytes_per_span_max)

(* --format json: the tree's span calls add up to the spans received,
   and its exclusive times to the header's total (each node's figure is
   rounded to 1 ns). *)
let test_profiler_json () =
  let prof = profiled rr_sw_svt in
  let field k = function
    | Ledger.Obj kv -> List.assoc k kv
    | _ -> Alcotest.fail ("not an object around " ^ k)
  in
  let num k j =
    match field k j with Ledger.Num f -> f | _ -> Alcotest.fail (k ^ " not a number")
  in
  let children j =
    match j with
    | Ledger.Obj kv -> (
        match List.assoc_opt "children" kv with
        | Some (Ledger.Arr l) -> l
        | _ -> [])
    | _ -> []
  in
  let rec fold f acc j = List.fold_left (fold f) (f acc j) (children j) in
  let doc = Ledger.parse_json (Profiler.to_json prof) in
  let tree = field "tree" doc in
  let name j = match field "name" j with Ledger.Str s -> s | _ -> "" in
  let span_roots =
    List.filter
      (fun j -> String.starts_with ~prefix:"vcpu" (name j) || name j = "host")
      (children tree)
  in
  checkb "has a vcpu subtree" true (span_roots <> []);
  let calls = List.fold_left (fold (fun acc j -> acc +. num "calls" j)) 0.0 span_roots in
  checki "tree calls = spans" (Profiler.spans prof) (int_of_float calls);
  checki "header spans" (Profiler.spans prof) (int_of_float (num "spans" doc));
  let nodes = fold (fun acc _ -> acc + 1) 0 tree in
  let excl = fold (fun acc j -> acc +. num "excl_ns" j) 0.0 tree in
  let total = num "excl_total_ns" doc in
  checkb
    (Printf.sprintf "excl_total_ns %.0f = tree sum %.0f within %d ns" total excl nodes)
    true
    (abs_float (total -. excl) <= float_of_int nodes)

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
          Alcotest.test_case "wrap tags lazy" `Quick test_wrap_tags_lazy;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "nesting and ordering" `Quick
            test_nesting_and_ordering;
          Alcotest.test_case "sw-svt ring spans" `Quick test_sw_svt_ring_spans;
          Alcotest.test_case "ring spans on their side's lane" `Quick
            test_ring_span_lanes;
          Alcotest.test_case "create allocates little" `Quick
            test_timeline_create_is_small;
        ] );
      ( "chrome",
        [ Alcotest.test_case "json escaping" `Quick test_chrome_json_escaping ] );
      ( "export",
        [ Alcotest.test_case "ledger round trip" `Quick test_ledger_round_trip ] );
      ( "coverage",
        [
          Alcotest.test_case "slot keying" `Quick test_coverage_slot_keying;
          QCheck_alcotest.to_alcotest prop_coverage_slot_matches_int64;
          Alcotest.test_case "kind prefix table" `Quick test_coverage_kind_prefix;
          Alcotest.test_case "merge and hex" `Quick test_coverage_merge_and_hex;
          Alcotest.test_case "probe sink" `Quick test_coverage_attaches_to_probe;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "sinks do not perturb" `Quick
            test_sinks_do_not_perturb;
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
          Alcotest.test_case "set-up before the first event" `Quick
            test_profiler_setup_bucket;
          Alcotest.test_case "charges its own bookkeeping" `Quick
            test_profiler_charges_itself;
          Alcotest.test_case "does not perturb" `Quick
            test_profiler_does_not_perturb;
          Alcotest.test_case "allocation total exact" `Quick
            test_profiler_alloc_total_exact;
          Alcotest.test_case "own allocation per span" `Quick
            test_profiler_alloc_guard;
          Alcotest.test_case "json tree sums" `Quick test_profiler_json;
        ] );
    ]
