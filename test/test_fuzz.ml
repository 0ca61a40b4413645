(* Tests for the coverage-guided fuzzer (lib/fuzz): input serialization,
   seeded generation, the execution harness's determinism, corpus-ledger
   round trips, campaign determinism across worker counts and across
   crash/resume, and the violation-detection + shrinking pipeline. *)

module Prng = Svt_engine.Prng
module Coverage = Svt_obs.Coverage
module Plan = Svt_fault.Plan
module Ledger = Svt_campaign.Ledger
module Input = Svt_fuzz.Input
module Gen = Svt_fuzz.Gen
module Corpus = Svt_fuzz.Corpus
module Shrink = Svt_fuzz.Shrink
module Fuzz = Svt_fuzz.Fuzz

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let tmp name =
  let dir = Filename.get_temp_dir_name () in
  Filename.concat dir (Printf.sprintf "svt-fuzz-test-%d-%s" (Unix.getpid ()) name)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- Input serialization ---------------------------------------------------- *)

let test_input_roundtrip_generated () =
  (* every input the generator can produce must survive the text form
     exactly: the corpus stores nothing else *)
  for i = 0 to 499 do
    let rng = Prng.of_split 0xC0FFEEL ~index:i in
    let cfg = { Gen.default with Gen.allow_hlt = i mod 2 = 0 } in
    let input = Gen.gen ~cfg rng in
    let s = Input.to_string input in
    match Input.of_string s with
    | Error e -> Alcotest.failf "input %d failed to parse (%s): %s" i e s
    | Ok back ->
        checkb (Printf.sprintf "input %d round-trips" i) true
          (Input.equal input back);
        checks
          (Printf.sprintf "input %d reserializes identically" i)
          s (Input.to_string back)
  done

let test_input_roundtrip_mutated () =
  let rng = Prng.of_seed 11L in
  let input = ref (Gen.gen rng) in
  for i = 0 to 199 do
    input := Gen.mutate rng !input;
    let s = Input.to_string !input in
    checkb (Printf.sprintf "mutant %d round-trips" i) true
      (Input.equal !input (Input.of_string_exn s))
  done

let test_input_rejects_garbage () =
  checkb "no sections" true (Result.is_error (Input.of_string "cpuid:1"));
  checkb "bad op" true (Result.is_error (Input.of_string "frob:1||"));
  checkb "bad poke" true (Result.is_error (Input.of_string "cpuid:1|zap|"));
  checkb "poke field out of range" true
    (Result.is_error
       (Input.of_string (Printf.sprintf "|%d=ff|" Input.n_fields)));
  checkb "bad plan" true (Result.is_error (Input.of_string "||frob:0.5"))

let test_gen_constraint () =
  (* drop-irq never rides a waiting program: a dropped wakeup would be
     indistinguishable from a deadlock *)
  for i = 0 to 499 do
    let rng = Prng.of_split 0xBAD5EEDL ~index:i in
    let input = Gen.gen rng in
    if Input.has_wait input then
      checkb
        (Printf.sprintf "input %d: no drop-irq with wait ops" i)
        true
        (Plan.rate input.Input.plan Svt_fault.Kind.Drop_irq = 0.0)
  done

(* --- execution harness ------------------------------------------------------ *)

let test_exec_deterministic () =
  let rng = Prng.of_seed 21L in
  let input = Gen.gen rng in
  let a = Fuzz.exec ~master:7L input in
  let b = Fuzz.exec ~master:7L input in
  checkb "fingerprints equal" true
    (a.Fuzz.fingerprint = b.Fuzz.fingerprint);
  checkb "coverage equal" true (Coverage.equal a.Fuzz.coverage b.Fuzz.coverage);
  checki "events equal" a.Fuzz.events b.Fuzz.events;
  checkb "nonzero coverage" true (Coverage.bits a.Fuzz.coverage > 0)

let test_exec_matrix_fingerprint () =
  (* the differential harness runs the full (arch, mode) matrix — four
     modes on x86 plus baseline/SW SVt/OoH on ARM (no HW SVt there) —
     and the folded fingerprint must stay deterministic *)
  Alcotest.(check int) "point count" 7 (List.length Fuzz.modes);
  checkb "ooh is in the differential set" true
    (List.mem (Svt_arch.Backend.X86, Svt_core.Mode.Ooh) Fuzz.modes);
  checkb "arm baseline is in the differential set" true
    (List.mem (Svt_arch.Backend.Arm, Svt_core.Mode.Baseline) Fuzz.modes);
  checkb "arm has no hw-svt point" true
    (not (List.mem (Svt_arch.Backend.Arm, Svt_core.Mode.Hw_svt) Fuzz.modes));
  checkb "x86 labels keep their historical spellings" true
    (Fuzz.point_label (Svt_arch.Backend.X86, Svt_core.Mode.Ooh)
    = Svt_core.Mode.name Svt_core.Mode.Ooh);
  checkb "arm labels are prefixed" true
    (Fuzz.point_label (Svt_arch.Backend.Arm, Svt_core.Mode.Baseline)
    = "arm:" ^ Svt_core.Mode.name Svt_core.Mode.Baseline);
  let rng = Prng.of_seed 33L in
  let input = Gen.gen rng in
  let a = Fuzz.exec ~master:11L input in
  let b = Fuzz.exec ~master:11L input in
  checkb "matrix fingerprints equal" true
    (a.Fuzz.fingerprint = b.Fuzz.fingerprint)

let test_exec_clean_input_no_violation () =
  (* a plain cpuid program must pass all modes and agree across them *)
  let input =
    { Input.empty with Input.ops = [ Input.Cpuid 1; Input.Rdmsr 0 ] }
  in
  match (Fuzz.exec ~master:0L input).Fuzz.violation with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected violation: %s" (Fuzz.violation_to_string v)

let test_exec_detects_deadlock () =
  (* a bare HLT parks the vCPU forever; the queue drains with the
     program unfinished, which the harness must classify as a deadlock
     (the simulator itself raises nothing for a parked process) *)
  let input = { Input.empty with Input.ops = [ Input.Hlt ] } in
  match (Fuzz.exec ~master:0L input).Fuzz.violation with
  | Some (Fuzz.Deadlock _) -> ()
  | other ->
      Alcotest.failf "expected deadlock, got %s"
        (match other with
        | None -> "no violation"
        | Some v -> Fuzz.violation_to_string v)

let test_exec_detects_budget_exhaustion () =
  let input =
    { Input.empty with Input.ops = [ Input.Cpuid 1; Input.Cpuid 2 ] }
  in
  match (Fuzz.exec ~budget:10 ~master:0L input).Fuzz.violation with
  | Some (Fuzz.Exhausted _) -> ()
  | other ->
      Alcotest.failf "expected exhaustion, got %s"
        (match other with
        | None -> "no violation"
        | Some v -> Fuzz.violation_to_string v)

(* --- shrinking -------------------------------------------------------------- *)

let test_shrink_minimal_deadlock () =
  (* pad a deadlocking program with noise; the shrinker must strip it to
     the single hlt, and the result must be 1-minimal *)
  let noisy =
    {
      Input.empty with
      Input.ops =
        [
          Input.Cpuid 1;
          Input.Compute_us 5;
          Input.Hlt;
          Input.Io_read 3;
          Input.Increments 100;
        ];
    }
  in
  let oracle cand =
    match (Fuzz.exec ~master:3L cand).Fuzz.violation with
    | Some v -> Fuzz.same_class v (Fuzz.Deadlock { mode = "baseline" })
    | None -> false
  in
  checkb "noisy input triggers" true (oracle noisy);
  let shrunk = Shrink.minimize ~oracle noisy in
  checki "shrunk to one step" 1 (Input.steps shrunk);
  checkb "shrunk is the hlt" true (shrunk.Input.ops = [ Input.Hlt ]);
  (* minimality: removing the one remaining step un-triggers *)
  checkb "empty input does not trigger" false
    (oracle { shrunk with Input.ops = [] })

let test_shrink_trace_readable () =
  let input =
    {
      Input.ops = [ Input.Hlt ];
      Input.pokes = [ (0, 1L) ];
      plan = Plan.of_string_exn "drop-ring:0.05";
    }
  in
  let lines = Shrink.trace input in
  checki "three trace lines" 3 (List.length lines);
  checkb "op line" true
    (List.exists (fun l -> l = "  op[0] hlt") lines);
  checkb "plan line" true
    (List.exists (fun l -> l = "  plan drop-ring:0.05") lines)

(* --- corpus ledger rows ----------------------------------------------------- *)

let test_corpus_row_roundtrip () =
  let rng = Prng.of_seed 31L in
  let input = Gen.gen rng in
  let cov = Coverage.create () in
  Coverage.mark cov 17;
  Coverage.mark cov 4011;
  let kept = Corpus.kept_entry ~index:5 ~bits_added:2 ~events:123 ~cov input in
  (* through the journal line format and back *)
  let line = Ledger.line ~crc:true kept in
  let back =
    match Ledger.entry_of_line line with
    | Ok e -> e
    | Error e -> Alcotest.failf "kept row failed to parse: %s" e
  in
  (match Corpus.classify back with
  | Ok (Some (Corpus.Kept { index; input = i2; cov = c2 })) ->
      checki "index" 5 index;
      checkb "input survives" true (Input.equal input i2);
      checkb "coverage survives" true (Coverage.equal cov c2)
  | _ -> Alcotest.fail "kept row did not classify");
  let viol =
    Corpus.violation_entry ~index:9 ~violation:"deadlock:baseline" ~input
      ~shrunk:{ Input.empty with Input.ops = [ Input.Hlt ] }
  in
  match Corpus.classify viol with
  | Ok (Some (Corpus.Violation { shrunk; _ })) ->
      checkb "shrunk survives" true (shrunk.Input.ops = [ Input.Hlt ])
  | _ -> Alcotest.fail "violation row did not classify"

(* --- campaign determinism --------------------------------------------------- *)

let test_campaign_jobs_deterministic () =
  let a = tmp "jobs1.jsonl" and b = tmp "jobs2.jsonl" in
  let s1 = Fuzz.campaign ~jobs:1 ~ledger:a ~seed:7L ~batch:24 () in
  let s2 = Fuzz.campaign ~jobs:2 ~ledger:b ~seed:7L ~batch:24 () in
  checkb "byte-identical ledgers" true (read_file a = read_file b);
  checki "same kept" s1.Fuzz.kept s2.Fuzz.kept;
  checki "same coverage" s1.Fuzz.cov_bits s2.Fuzz.cov_bits;
  checkb "kept something" true (s1.Fuzz.kept > 0);
  checki "no violations at this seed" 0 s1.Fuzz.violations;
  Sys.remove a;
  Sys.remove b

let test_campaign_resume_deterministic () =
  let full = tmp "full.jsonl" and cut = tmp "cut.jsonl" in
  let _ = Fuzz.campaign ~ledger:full ~seed:7L ~batch:24 () in
  let c = Fuzz.campaign ~ledger:cut ~seed:7L ~batch:24 ~max_rounds:1 () in
  checkb "interrupted" true c.Fuzz.interrupted;
  checki "one round ran" Fuzz.round_size c.Fuzz.execs;
  let r = Fuzz.campaign ~ledger:cut ~resume:true ~seed:7L ~batch:24 () in
  checki "resume completed the batch" 24 r.Fuzz.execs;
  checkb "resumed ledger byte-identical to uninterrupted" true
    (read_file full = read_file cut);
  Sys.remove full;
  Sys.remove cut

let test_campaign_resume_torn_journal () =
  let full = tmp "torn-full.jsonl" and torn = tmp "torn.jsonl" in
  let _ = Fuzz.campaign ~ledger:full ~seed:7L ~batch:24 () in
  (* tear the tail mid-row: recover must drop back to the last complete
     round and re-run from there *)
  let bytes = read_file full in
  let oc = open_out_bin torn in
  output_string oc (String.sub bytes 0 (String.length bytes - 41));
  close_out oc;
  let r = Fuzz.campaign ~ledger:torn ~resume:true ~seed:7L ~batch:24 () in
  checki "torn resume completed" 24 r.Fuzz.execs;
  checkb "torn+resumed ledger byte-identical" true
    (read_file full = read_file torn);
  Sys.remove full;
  Sys.remove torn

(* Older fuzz journals carry a heartbeat row (workload "telemetry")
   before each round's progress barrier. The line below is pinned
   verbatim from such a journal (seed 7, round 1). Resume must skip it:
   the corpus it rebuilds, and every row it writes after it, match an
   uninterrupted campaign. *)
let legacy_fuzz_heartbeat =
  {|{"run_id":"43fdcb4457fbeda2","mode":"baseline","level":"l2","workload":"telemetry","vcpus":1,"seed":1,"cores":1,"smt_per_core":2,"tenants":1,"hosts":1,"status":"ok","attempts":1,"wall_s":0,"metrics":{"corpus_size":5,"cov_bits":59,"events":10876,"execs":8,"kept":5,"rounds":1,"violations":0},"data":{"telemetry":"fuzz"},"crc":"2cf3a034"}|}

let test_campaign_resume_legacy_heartbeat () =
  let full = tmp "hb-full.jsonl" and cut = tmp "hb-cut.jsonl" in
  let s_full = Fuzz.campaign ~ledger:full ~seed:7L ~batch:24 () in
  let _ = Fuzz.campaign ~ledger:cut ~seed:7L ~batch:24 ~max_rounds:1 () in
  (* put the heartbeat where the older writer did: just before the
     round's progress barrier, the journal's last line *)
  let lines = String.split_on_char '\n' (String.trim (read_file cut)) in
  let n = List.length lines in
  let with_hb =
    List.concat
      (List.mapi
         (fun i l -> if i = n - 1 then [ legacy_fuzz_heartbeat; l ] else [ l ])
         lines)
  in
  let oc = open_out_bin cut in
  List.iter (fun l -> output_string oc (l ^ "\n")) with_hb;
  close_out oc;
  let r = Fuzz.campaign ~ledger:cut ~resume:true ~seed:7L ~batch:24 () in
  checki "same execs" s_full.Fuzz.execs r.Fuzz.execs;
  checki "same kept" s_full.Fuzz.kept r.Fuzz.kept;
  checki "same coverage" s_full.Fuzz.cov_bits r.Fuzz.cov_bits;
  checki "same events" s_full.Fuzz.events r.Fuzz.events;
  let without_hb =
    String.split_on_char '\n' (read_file cut)
    |> List.filter (fun l -> l <> legacy_fuzz_heartbeat)
    |> String.concat "\n"
  in
  checks "rows after the heartbeat match an uninterrupted run"
    (read_file full) without_hb;
  Sys.remove full;
  Sys.remove cut

(* --- seeded violations end to end ------------------------------------------- *)

let test_campaign_finds_and_shrinks_deadlock () =
  (* with the bare-HLT op enabled the generator plants guaranteed hangs;
     the campaign must catch each as a deadlock violation and shrink it
     to a <=10-step reproducer (the hang class shrinks to exactly 1) *)
  let path = tmp "viol.jsonl" in
  let gen_cfg = { Gen.default with Gen.allow_hlt = true; Gen.fault_prob = 0.0 } in
  let stats = Fuzz.campaign ~gen_cfg ~ledger:path ~seed:0xF00DL ~batch:24 () in
  checkb "violations found" true (stats.Fuzz.violations > 0);
  let entries = Result.get_ok (Ledger.load path) in
  let shrunken =
    List.filter_map
      (fun e ->
        match Corpus.classify e with
        | Ok (Some (Corpus.Violation { input; shrunk; _ })) ->
            Some (e, input, shrunk)
        | _ -> None)
      entries
  in
  checki "every violation has a row" stats.Fuzz.violations
    (List.length shrunken);
  let deadlocks =
    List.filter
      (fun ((e : Ledger.entry), _, _) ->
        match e.Ledger.error with
        | Some err -> String.length err >= 8 && String.sub err 0 8 = "deadlock"
        | None -> false)
      shrunken
  in
  checkb "at least one deadlock" true (deadlocks <> []);
  List.iter
    (fun (_, input, shrunk) ->
      checkb "reproducer is <=10 steps" true (Input.steps shrunk <= 10);
      checkb "reproducer no larger than the input" true
        (Input.steps shrunk <= Input.steps input))
    shrunken;
  (* the deadlock class shrinks to the single hlt, and is 1-minimal *)
  List.iter
    (fun (_, _, shrunk) ->
      checkb "deadlock reproducer is the bare hlt" true
        (shrunk.Input.ops = [ Input.Hlt ] && shrunk.Input.pokes = []))
    deadlocks;
  Sys.remove path

let test_campaign_finds_vmcs_poke_crash () =
  (* a real finding the fuzzer surfaced: smashing a vmcs12 pointer field
     to all-ones escapes the entry checks and crashes the stack with an
     unvalidated negative GPA. Pin the reproducer so it stays found. *)
  let input =
    {
      Input.empty with
      Input.ops = [ Input.Cpuid 1 ];
      Input.pokes = [ (17, -1L) ];
    }
  in
  match (Fuzz.exec ~master:7L input).Fuzz.violation with
  | Some (Fuzz.Crash _) -> ()
  | other ->
      Alcotest.failf "expected crash, got %s"
        (match other with
        | None -> "no violation"
        | Some v -> Fuzz.violation_to_string v)

let () =
  Alcotest.run "svt_fuzz"
    [
      ( "input",
        [
          Alcotest.test_case "generated round trip" `Quick
            test_input_roundtrip_generated;
          Alcotest.test_case "mutated round trip" `Quick
            test_input_roundtrip_mutated;
          Alcotest.test_case "rejects garbage" `Quick test_input_rejects_garbage;
          Alcotest.test_case "drop-irq/wait constraint" `Quick
            test_gen_constraint;
        ] );
      ( "exec",
        [
          Alcotest.test_case "deterministic" `Quick test_exec_deterministic;
          Alcotest.test_case "arch-mode matrix fingerprint" `Quick
            test_exec_matrix_fingerprint;
          Alcotest.test_case "clean input passes" `Quick
            test_exec_clean_input_no_violation;
          Alcotest.test_case "detects deadlock" `Quick
            test_exec_detects_deadlock;
          Alcotest.test_case "detects budget exhaustion" `Quick
            test_exec_detects_budget_exhaustion;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimal deadlock" `Quick
            test_shrink_minimal_deadlock;
          Alcotest.test_case "trace readable" `Quick test_shrink_trace_readable;
        ] );
      ( "corpus",
        [ Alcotest.test_case "ledger row round trip" `Quick
            test_corpus_row_roundtrip ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 = jobs=2" `Quick
            test_campaign_jobs_deterministic;
          Alcotest.test_case "resume deterministic" `Quick
            test_campaign_resume_deterministic;
          Alcotest.test_case "torn journal resume" `Quick
            test_campaign_resume_torn_journal;
          Alcotest.test_case "resume skips legacy heartbeat" `Quick
            test_campaign_resume_legacy_heartbeat;
          Alcotest.test_case "finds and shrinks deadlocks" `Quick
            test_campaign_finds_and_shrinks_deadlock;
          Alcotest.test_case "vmcs poke crash reproducer" `Quick
            test_campaign_finds_vmcs_poke_crash;
        ] );
    ]
