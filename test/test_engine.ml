(* Tests for the discrete-event engine: time arithmetic, the cancellable
   event queue, process scheduling determinism, synchronization
   primitives, and the PRNG and its distributions. *)

module Time = Svt_engine.Time
module Event_queue = Svt_engine.Event_queue
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Prng = Svt_engine.Prng

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Time ---------------------------------------------------------------- *)

let test_time_units () =
  checki "us" 1_000 (Time.of_us 1);
  checki "ms" 1_000_000 (Time.of_ms 1);
  checki "us_f rounds" 1_500 (Time.of_us_f 1.5);
  check (Alcotest.float 1e-9) "to_us_f" 2.5 (Time.to_us_f 2_500)

let test_time_arith () =
  checki "add" 30 (Time.add 10 20);
  checki "sub" 5 (Time.sub 15 10);
  checki "diff" (-5) (Time.diff 10 15);
  checki "scale half" 50 (Time.scale 100 0.5);
  checki "scale rounds" 1 (Time.scale 1 0.6)

let test_time_compare () =
  checkb "lt" true Time.(of_us 1 < of_us 2);
  checkb "ge" true Time.(of_us 2 >= of_us 2);
  checki "min" 1 (Time.min 1 2);
  checki "max" 2 (Time.max 1 2);
  check Alcotest.string "pp ns" "42ns" (Time.to_string 42);
  check Alcotest.string "pp us" "1.50us" (Time.to_string 1_500)

(* --- Event queue --------------------------------------------------------- *)

(* Queue a callback, and pop as the simulator does: one [pop], after
   which the queue's [time] is the popped event's. *)
let add q ~time f = Event_queue.add q ~time (Event_queue.Call f)

let pop q =
  match Event_queue.pop q ~until:max_int with
  | p when p == Event_queue.none -> None
  | Event_queue.Call run -> Some (q.Event_queue.time, run)
  | Event_queue.Wake _ -> Alcotest.fail "no process was parked"

let test_queue_order () =
  let q = Event_queue.create () in
  let out = ref [] in
  let add time tag = ignore (add q ~time (fun () -> out := tag :: !out)) in
  add 30 "c";
  add 10 "a";
  add 20 "b";
  let rec drain () =
    match pop q with
    | Some (_, run) ->
        run ();
        drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !out)

let test_queue_fifo_same_time () =
  let q = Event_queue.create () in
  let out = ref [] in
  for i = 1 to 20 do
    ignore (add q ~time:5 (fun () -> out := i :: !out))
  done;
  let rec drain () =
    match pop q with
    | Some (_, run) ->
        run ();
        drain ()
    | None -> ()
  in
  drain ();
  checki "fifo preserved" 1 (List.hd (List.rev !out));
  checki "all delivered" 20 (List.length !out)

let test_queue_cancel () =
  let q = Event_queue.create () in
  let hit = ref 0 in
  let h1 = add q ~time:1 (fun () -> incr hit) in
  let _h2 = add q ~time:2 (fun () -> incr hit) in
  Event_queue.cancel q h1;
  checki "live count" 1 (Event_queue.length q);
  let rec drain () =
    match pop q with
    | Some (_, run) ->
        run ();
        drain ()
    | None -> ()
  in
  drain ();
  checki "only live ran" 1 !hit

(* Regression: cancelling a handle whose event already fired must be a
   no-op. It used to decrement the live count anyway, making the queue
   report empty while real events remained — which ended simulation runs
   early (the fault watchdog cancels fired deadlines routinely). *)
let test_queue_cancel_after_fire () =
  let q = Event_queue.create () in
  let h = add q ~time:1 ignore in
  let _keep = add q ~time:2 ignore in
  (match pop q with
  | Some (t, _) -> checki "fired" 1 t
  | None -> Alcotest.fail "event expected");
  Event_queue.cancel q h;
  checki "live count intact" 1 (Event_queue.length q);
  checkb "remaining event still delivered" true (pop q <> None)

(* A slot freed by a fired or cancelled event is reused by the next add.
   The old event's handle must then match nothing: cancelling it leaves
   the newer event in the slot queued and live. *)
let test_queue_stale_handle () =
  let q = Event_queue.create () in
  let fired = add q ~time:1 ignore in
  (match pop q with
  | Some (t, _) -> checki "first event fired" 1 t
  | None -> Alcotest.fail "event expected");
  let ran = ref [] in
  let newer = add q ~time:2 (fun () -> ran := 2 :: !ran) in
  Event_queue.cancel q fired;
  checki "newer event still live" 1 (Event_queue.length q);
  (* a cancelled event's slot is freed when it surfaces, then reused *)
  Event_queue.cancel q newer;
  Event_queue.cancel q newer;
  checki "cancel is idempotent" 0 (Event_queue.length q);
  checkb "cancelled event never popped" true (pop q = None);
  let _reused = add q ~time:3 (fun () -> ran := 3 :: !ran) in
  Event_queue.cancel q newer;
  Event_queue.cancel q fired;
  (match pop q with
  | Some (t, run) ->
      checki "newest event fires at its time" 3 t;
      run ()
  | None -> Alcotest.fail "the newest event was lost to a stale handle");
  check Alcotest.(list int) "only the newest ran" [ 3 ] !ran;
  checki "adds" 3 (Event_queue.stats q).adds;
  checki "cancels" 1 (Event_queue.stats q).cancels

let test_queue_peek () =
  let q = Event_queue.create () in
  checki "empty: head at max_int" max_int (Event_queue.head_time q);
  checkb "empty: nothing due" true
    (Event_queue.pop q ~until:max_int == Event_queue.none);
  let h = add q ~time:7 ignore in
  let _later = add q ~time:9 ignore in
  checki "peek" 7 (Event_queue.head_time q);
  Event_queue.cancel q h;
  checki "peek skips cancelled" 9 (Event_queue.head_time q);
  checkb "head beyond until: nothing due" true
    (Event_queue.pop q ~until:8 == Event_queue.none);
  checki "and nothing removed" 1 (Event_queue.length q);
  checkb "head at until: due" true
    (Event_queue.pop q ~until:9 != Event_queue.none);
  checki "its time" 9 q.Event_queue.time;
  checki "drained" 0 (Event_queue.length q);
  checki "drained: head at max_int" max_int (Event_queue.head_time q);
  checki "pops" 1 (Event_queue.stats q).pops

let test_queue_growth () =
  let q = Event_queue.create () in
  for i = 0 to 999 do
    ignore (add q ~time:(1000 - i) ignore)
  done;
  checki "all live" 1000 (Event_queue.length q);
  (* drains in increasing time order *)
  let last = ref (-1) in
  let rec drain () =
    match pop q with
    | Some (t, _) ->
        checkb "monotone" true (t >= !last);
        last := t;
        drain ()
    | None -> ()
  in
  drain ()

let prop_heap_sorted =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (add q ~time:t ignore)) times;
      let rec drain acc =
        match pop q with
        | Some (t, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* --- Simulator ----------------------------------------------------------- *)

let test_sim_delay_advances_clock () =
  let sim = Simulator.create () in
  let seen = ref Time.zero in
  Simulator.spawn sim (fun () ->
      Proc.delay (Time.of_us 5);
      seen := Proc.now ());
  Simulator.run sim;
  checki "clock" (Time.of_us 5) !seen

let test_sim_interleaving_deterministic () =
  let run_once () =
    let sim = Simulator.create () in
    let log = ref [] in
    Simulator.spawn sim ~name:"a" (fun () ->
        for i = 1 to 3 do
          Proc.delay 10;
          log := ("a", i, Time.to_ns (Proc.now ())) :: !log
        done);
    Simulator.spawn sim ~name:"b" (fun () ->
        for i = 1 to 3 do
          Proc.delay 15;
          log := ("b", i, Time.to_ns (Proc.now ())) :: !log
        done);
    Simulator.run sim;
    List.rev !log
  in
  checkb "deterministic" true (run_once () = run_once ())

let test_sim_until () =
  let sim = Simulator.create () in
  let count = ref 0 in
  Simulator.spawn sim (fun () ->
      for _ = 1 to 100 do
        Proc.delay (Time.of_us 10);
        incr count
      done);
  Simulator.run ~until:(Time.of_us 55) sim;
  checki "stopped at limit" 5 !count;
  checki "clock at limit boundary" (Time.of_us 50) (Simulator.now sim)

let test_sim_until_advances_when_drained () =
  let sim = Simulator.create () in
  Simulator.spawn sim (fun () -> Proc.delay (Time.of_us 1));
  Simulator.run ~until:(Time.of_ms 3) sim;
  checki "clock reaches until" (Time.of_ms 3) (Simulator.now sim)

let test_sim_process_exception_propagates () =
  let sim = Simulator.create () in
  Simulator.spawn sim ~name:"boom" (fun () ->
      Proc.delay 5;
      failwith "kaboom");
  Alcotest.check_raises "raises"
    (Failure "process \"boom\" raised: Failure(\"kaboom\")") (fun () ->
      Simulator.run sim)

let test_sim_budget () =
  (* The event budget installed on the simulator is the one thing that
     stops a run early. It counts over the simulator's lifetime, so a
     driver advancing in [run ~until] slices is cut exactly where a
     single [run] is. *)
  let exhaust drive =
    let sim = Simulator.create () in
    let rec forever () =
      Proc.delay 1;
      forever ()
    in
    Simulator.spawn sim forever;
    Simulator.set_budget ~max_events:500 sim;
    match drive sim with
    | () -> Alcotest.fail "event budget did not fire"
    | exception Simulator.Budget_exhausted { events; now; max_events } ->
        checki "stopped at the limit" 500 events;
        checki "limit reported" 500 max_events;
        checkb "clock within budget" true (now <= Time.of_ns 500);
        (* The queue still holds the overrunning event: the abort is a
           clean truncation, not a corruption. *)
        checkb "queue intact" true (Simulator.next_event_time sim <> None);
        (events, now)
  in
  let whole = exhaust (fun sim -> Simulator.run sim) in
  checkb "exhaustion repeats identically" true
    (exhaust (fun sim -> Simulator.run sim) = whole);
  let sliced sim =
    for i = 1 to 10 do
      Simulator.run ~until:(Time.of_ns (i * 100)) sim
    done
  in
  checkb "budget counts across run ~until calls" true (exhaust sliced = whole)

(* The budget's edges in [run]: the budget is checked before an event is
   consumed, and only when one is due by [until]. A budget spent by the
   last queued event is no overrun, and neither is one spent when the
   head lies beyond [until]. *)
let test_sim_budget_edges () =
  let sim_with times ~budget =
    let sim = Simulator.create () in
    List.iter (fun at -> ignore (Simulator.schedule_at sim ~time:at ignore)) times;
    Simulator.set_budget ~max_events:budget sim;
    sim
  in
  (* the queue drains exactly as the budget is spent *)
  let sim = sim_with [ 10; 20; 30 ] ~budget:3 in
  Simulator.run sim;
  checki "drained: events" 3 (Simulator.events_processed sim);
  checki "drained: clock" 30 (Simulator.now sim);
  Alcotest.(check (option int)) "drained: queue empty" None
    (Simulator.next_event_time sim);
  let sim = sim_with [ 10; 20; 30 ] ~budget:3 in
  Simulator.run ~until:100 sim;
  checki "drained before until: clock at until" 100 (Simulator.now sim);
  (* an event is due and the budget is spent *)
  List.iter
    (fun until ->
      let sim = sim_with [ 10; 20; 30; 40 ] ~budget:3 in
      match Simulator.run ?until sim with
      | () -> Alcotest.fail "a due event overran the budget silently"
      | exception Simulator.Budget_exhausted { events; now; max_events } ->
          checki "due: events" 3 events;
          checki "due: now" 30 now;
          checki "due: max_events" 3 max_events;
          Alcotest.(check (option int)) "due: event still queued" (Some 40)
            (Simulator.next_event_time sim))
    [ None; Some 40 ];
  (* the head lies beyond [until] and the budget is spent: the run
     returns, its clock at the last event, as any run whose head lies
     beyond [until] leaves it *)
  let sim = sim_with [ 10; 20; 30; 100 ] ~budget:3 in
  Simulator.run ~until:50 sim;
  checki "beyond until: events" 3 (Simulator.events_processed sim);
  checki "beyond until: clock" 30 (Simulator.now sim);
  Alcotest.(check (option int)) "beyond until: head kept" (Some 100)
    (Simulator.next_event_time sim)

(* One process making 1,000 back-to-back delays: nearly every one is
   taken in place, and the budget and the [until] horizon still cut the
   chain exactly where a queue round trip per delay would. *)
let delay_chain sim =
  Simulator.spawn sim (fun () ->
      for _ = 1 to 1_000 do
        Proc.delay 3
      done)

let test_sim_delay_chain_budget () =
  let sim = Simulator.create () in
  delay_chain sim;
  Simulator.set_budget ~max_events:500 sim;
  match Simulator.run sim with
  | () -> Alcotest.fail "event budget did not fire"
  | exception Simulator.Budget_exhausted { events; now; max_events } ->
      (* the spawn is event 1 at t=0, the k-th wake-up event k+1 at 3k *)
      checki "events" 500 events;
      checki "now" 1_497 now;
      checki "max_events" 500 max_events;
      checki "clock" 1_497 (Simulator.now sim);
      Alcotest.(check (option int)) "overrunning wake-up still queued"
        (Some 1_500) (Simulator.next_event_time sim)

let test_sim_delay_chain_slices () =
  let whole = Simulator.create () in
  delay_chain whole;
  Simulator.run whole;
  checki "one run: clock" 3_000 (Simulator.now whole);
  checki "one run: events" 1_001 (Simulator.events_processed whole);
  let sliced = Simulator.create () in
  delay_chain sliced;
  for i = 1 to 9 do
    Simulator.run ~until:((300 * i) + 1) sliced;
    (* stopped at the last wake-up within the slice, not past it *)
    checki "slice clock" (300 * i) (Simulator.now sliced);
    checki "slice events" ((100 * i) + 1) (Simulator.events_processed sliced)
  done;
  Simulator.run ~until:3_000 sliced;
  checki "ten slices: clock" (Simulator.now whole) (Simulator.now sliced);
  checki "ten slices: events" (Simulator.events_processed whole)
    (Simulator.events_processed sliced);
  checki "every event popped or taken in place"
    (Simulator.events_processed sliced)
    ((Simulator.queue_stats sliced).Event_queue.pops
    + Simulator.delays_in_place sliced)

(* Three processes whose delays interleave, so that no wake-up is ever
   the next event at the moment it is requested: every delay suspends
   and parks its continuation in a queue slot. That path allocates the
   continuation and its [Wake] payload, 32 B per event, and nothing
   beyond them; wrapping the continuation in a closure again, as the
   engine once did (184 B per event), fails the 48 B bound. *)
let test_sim_queued_delay_allocation () =
  let sim = Simulator.create () in
  let rounds = 10_000 in
  for i = 1 to 3 do
    Simulator.spawn sim (fun () ->
        Proc.delay i;
        for _ = 1 to rounds do
          Proc.delay 3
        done)
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  Simulator.run sim;
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  let events = Simulator.events_processed sim in
  checki "every delay went through the queue" 0 (Simulator.delays_in_place sim);
  checki "events" (3 * (rounds + 2)) events;
  let bytes_per_event = words *. 8. /. float_of_int events in
  if bytes_per_event > 48. then
    Alcotest.failf "%.1f B per queued delay (at most 48)" bytes_per_event

(* The process operations and the waits are for processes only. From a plain callback
   they must fail loudly, even while a process of the same simulator is
   mid-run, rather than move the clock. *)
let test_sim_proc_ops_outside_process () =
  let raises_unhandled what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Effect.Unhandled _ -> ()
  in
  raises_unhandled "delay outside any run" (fun () -> Proc.delay 5);
  raises_unhandled "now outside any run" (fun () -> ignore (Proc.now ()));
  let misuse make_op =
    let sim = Simulator.create () in
    let op = make_op sim in
    Simulator.spawn sim (fun () ->
        Proc.delay 10;
        ignore (Simulator.schedule sim ~after:Time.zero op);
        Proc.delay 10);
    ignore (Simulator.schedule sim ~after:5 op);
    raises_unhandled "from a callback" (fun () -> Simulator.run sim);
    checki "clock unmoved" 5 (Simulator.now sim)
  in
  misuse (fun _ () -> Proc.delay 1);
  misuse (fun _ () -> ignore (Proc.now ()));
  misuse (fun _ () -> ignore (Proc.sim ()));
  misuse (fun sim ->
      let s = Simulator.Signal.create sim in
      fun () -> Simulator.Signal.wait s);
  misuse (fun sim ->
      let mb = Simulator.Mailbox.create sim in
      fun () -> ignore (Simulator.Mailbox.recv mb : int))

let test_sim_nested_spawn () =
  let sim = Simulator.create () in
  let hits = ref 0 in
  Simulator.spawn sim (fun () ->
      Proc.delay 10;
      Simulator.spawn (Proc.sim ()) (fun () ->
          Proc.delay 10;
          incr hits);
      incr hits);
  Simulator.run sim;
  checki "both ran" 2 !hits

(* --- Signal / Mailbox --------------------------------------------------- *)

let test_signal_broadcast_wakes_all () =
  let sim = Simulator.create () in
  let s = Simulator.Signal.create sim in
  let woke = ref 0 in
  for _ = 1 to 3 do
    Simulator.spawn sim (fun () ->
        Simulator.Signal.wait s;
        incr woke)
  done;
  Simulator.spawn sim (fun () ->
      Proc.delay 100;
      Simulator.Signal.broadcast s);
  Simulator.run sim;
  checki "all woke" 3 !woke

let test_signal_wait_timeout () =
  let sim = Simulator.create () in
  let s = Simulator.Signal.create sim in
  let results = ref [] in
  Simulator.spawn sim (fun () ->
      results := Simulator.Signal.wait_timeout s (Time.of_us 10) :: !results;
      (* second wait is signaled before timeout *)
      results := Simulator.Signal.wait_timeout s (Time.of_us 100) :: !results);
  Simulator.spawn sim (fun () ->
      Proc.delay (Time.of_us 20);
      Simulator.Signal.broadcast s);
  Simulator.run sim;
  checkb "timeout then signaled" true
    (!results = [ `Signaled; `Timeout ])

let test_signal_wait_any () =
  let sim = Simulator.create () in
  let s1 = Simulator.Signal.create sim in
  let s2 = Simulator.Signal.create sim in
  let woke_at = ref Time.zero in
  Simulator.spawn sim (fun () ->
      Simulator.Signal.wait_any [ s1; s2 ];
      woke_at := Proc.now ());
  Simulator.spawn sim (fun () ->
      Proc.delay (Time.of_us 7);
      Simulator.Signal.broadcast s2;
      (* s1 fires later; the stale waiter must be harmless *)
      Proc.delay (Time.of_us 7);
      Simulator.Signal.broadcast s1);
  Simulator.run sim;
  checki "woke on first signal" (Time.of_us 7) !woke_at

let test_mailbox_fifo () =
  let sim = Simulator.create () in
  let mb = Simulator.Mailbox.create sim in
  let got = ref [] in
  Simulator.spawn sim ~name:"consumer" (fun () ->
      for _ = 1 to 3 do
        got := Simulator.Mailbox.recv mb :: !got
      done);
  Simulator.spawn sim ~name:"producer" (fun () ->
      Proc.delay 5;
      Simulator.Mailbox.send mb 1;
      Simulator.Mailbox.send mb 2;
      Proc.delay 5;
      Simulator.Mailbox.send mb 3);
  Simulator.run sim;
  check Alcotest.(list int) "fifo" [ 1; 2; 3 ] (List.rev !got);
  (* three readers blocked at once wake in the order they blocked *)
  let mb = Simulator.Mailbox.create sim in
  let woke = ref [] in
  List.iter
    (fun name ->
      Simulator.spawn sim ~name (fun () ->
          let v = Simulator.Mailbox.recv mb in
          woke := (name, v, Proc.now ()) :: !woke))
    [ "r1"; "r2"; "r3" ];
  Simulator.spawn sim ~name:"producer" (fun () ->
      Proc.delay 5;
      List.iter (Simulator.Mailbox.send mb) [ 10; 20; 30 ]);
  Simulator.run sim;
  check
    Alcotest.(list (triple string int int))
    "blocked readers in order"
    [ ("r1", 10, 15); ("r2", 20, 15); ("r3", 30, 15) ]
    (List.rev !woke)

let test_mailbox_try_recv () =
  let sim = Simulator.create () in
  let mb = Simulator.Mailbox.create sim in
  Alcotest.(check (option int)) "empty" None (Simulator.Mailbox.try_recv mb);
  Simulator.Mailbox.send mb 9;
  Alcotest.(check (option int)) "pops" (Some 9) (Simulator.Mailbox.try_recv mb)

(* The vhost-rx shape of [System.attach_net]: one reader takes the first
   item with [recv], spends a wake-up and a kick, then drains whatever
   else arrived with [try_recv] and spends a per-item cost. Items arrive
   from plain callbacks (the wire), several in one instant, and from a
   process. The batches, the instants they were taken, and the engine's
   counters are pinned, so a change to how a mailbox parks or wakes its
   reader shows. *)
let test_mailbox_vhost_rx_script () =
  let sim = Simulator.create () in
  let mb = Simulator.Mailbox.create sim in
  let batches = ref [] in
  Simulator.spawn sim ~name:"rx" (fun () ->
      let rec loop () =
        let first = Simulator.Mailbox.recv mb in
        let woke = Proc.now () in
        Proc.delay 2;
        Proc.delay 1;
        let rec gather acc =
          match Simulator.Mailbox.try_recv mb with
          | Some v -> gather (v :: acc)
          | None -> List.rev acc
        in
        let batch = first :: gather [] in
        List.iter (fun _ -> Proc.delay 1) batch;
        batches := (woke, Proc.now (), batch) :: !batches;
        loop ()
      in
      loop ());
  let wire at items =
    ignore
      (Simulator.schedule sim ~after:at (fun () ->
           List.iter (Simulator.Mailbox.send mb) items))
  in
  wire 3 [ 1; 2 ];
  wire 4 [ 3 ];
  wire 20 [ 4 ];
  wire 21 [ 5; 6; 7 ];
  wire 40 [ 10 ];
  Simulator.spawn sim ~name:"tx" (fun () ->
      Proc.delay 10;
      Simulator.Mailbox.send mb 8;
      Proc.delay 1;
      Simulator.Mailbox.send mb 9;
      Proc.delay 29;
      Simulator.Mailbox.send mb 11);
  Simulator.run sim;
  check
    Alcotest.(list (triple int int (list int)))
    "batches: woken at, done at, items"
    [ (3, 9, [ 1; 2; 3 ]); (10, 15, [ 8; 9 ]); (20, 27, [ 4; 5; 6; 7 ]);
      (40, 45, [ 10; 11 ]) ]
    (List.rev !batches);
  let q = Simulator.queue_stats sim in
  check
    Alcotest.(list int)
    "events, in place, adds, pops, cancels, peak"
    [ 33; 16; 17; 17; 0; 7 ]
    [ Simulator.events_processed sim; Simulator.delays_in_place sim;
      q.Event_queue.adds; q.pops; q.cancels; q.peak_live ];
  checki "ends at the last batch" 45 (Simulator.now sim)

(* --- PRNG ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 1 and b = Prng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  checkb "different streams" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_keyed_split_stable () =
  (* a keyed child is a pure function of (parent, index): it consumes no
     parent state, so replay can re-derive any child stream at any time *)
  let g = Prng.of_split 42L ~index:7 in
  let h = Prng.of_split 42L ~index:7 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "replay-stable stream" (Prng.next_int64 g)
      (Prng.next_int64 h)
  done

let test_prng_keyed_split_siblings_uncorrelated () =
  (* sibling child streams must not share draws: collect the first 64
     values of 8 siblings and require them pairwise (near-)disjoint —
     the old additive-salt seeding aliased across kinds exactly here *)
  let draws i =
    let g = Prng.of_split 0xFEEDL ~index:i in
    List.init 64 (fun _ -> Prng.next_int64 g)
  in
  let all = List.concat (List.init 8 draws) in
  let distinct = List.sort_uniq compare all in
  checki "512 draws, no collisions across siblings" (List.length all)
    (List.length distinct);
  (* and sibling streams differ from the parent-seeded stream *)
  let parent = Prng.of_seed 0xFEEDL in
  let p0 = Prng.next_int64 parent in
  checkb "child 0 differs from parent stream" true
    (p0 <> List.hd (draws 0))

let test_prng_float_range () =
  let g = Prng.create 4 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_int_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    checkb "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_exponential_mean () =
  let g = Prng.create 6 in
  let s =
    Svt_stats.Summary.of_list
      (List.init 20_000 (fun _ -> Prng.exponential g ~mean:100.0))
  in
  let m = Svt_stats.Summary.mean s in
  checkb "mean near 100" true (m > 95.0 && m < 105.0)

let test_prng_normal_moments () =
  let g = Prng.create 7 in
  let s =
    Svt_stats.Summary.of_list
      (List.init 20_000 (fun _ -> Prng.normal g ~mean:50.0 ~stddev:10.0))
  in
  checkb "mean" true (Float.abs (Svt_stats.Summary.mean s -. 50.0) < 0.5);
  checkb "stddev" true (Float.abs (Svt_stats.Summary.stddev s -. 10.0) < 0.5)

let test_prng_zipf_skew () =
  let g = Prng.create 8 in
  let z = Prng.Zipf.create ~n:1000 ~s:0.99 in
  let counts = Array.make 1001 0 in
  for _ = 1 to 50_000 do
    let r = Prng.Zipf.draw z g in
    checkb "rank in range" true (r >= 1 && r <= 1000);
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 1 much more popular than rank 100" true
    (counts.(1) > 5 * counts.(100))

let test_prng_shuffle_permutes () =
  let g = Prng.create 9 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  checkb "same elements" true (sorted = Array.init 50 Fun.id);
  checkb "actually shuffled" true (arr <> Array.init 50 Fun.id)

let prop_int_in_range =
  QCheck.Test.make ~name:"int_in_range stays in range" ~count:200
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let g = Prng.create (a + (b * 131)) in
      let v = Prng.int_in_range g ~lo ~hi in
      v >= lo && v <= hi)

let () =
  Alcotest.run "svt_engine"
    [
      ( "time",
        [
          Alcotest.test_case "unit conversions" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "comparison and printing" `Quick test_time_compare;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "time ordering" `Quick test_queue_order;
          Alcotest.test_case "FIFO at equal times" `Quick test_queue_fifo_same_time;
          Alcotest.test_case "cancellation" `Quick test_queue_cancel;
          Alcotest.test_case "cancel after fire" `Quick
            test_queue_cancel_after_fire;
          Alcotest.test_case "stale handle after slot reuse" `Quick
            test_queue_stale_handle;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "growth and drain order" `Quick test_queue_growth;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "delay advances clock" `Quick test_sim_delay_advances_clock;
          Alcotest.test_case "deterministic interleaving" `Quick
            test_sim_interleaving_deterministic;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "until advances drained clock" `Quick
            test_sim_until_advances_when_drained;
          Alcotest.test_case "process exception propagates" `Quick
            test_sim_process_exception_propagates;
          Alcotest.test_case "fuel budget" `Quick test_sim_budget;
          Alcotest.test_case "fuel budget edges" `Quick test_sim_budget_edges;
          Alcotest.test_case "nested spawn" `Quick test_sim_nested_spawn;
          Alcotest.test_case "delay chain under budget" `Quick
            test_sim_delay_chain_budget;
          Alcotest.test_case "delay chain in slices" `Quick
            test_sim_delay_chain_slices;
          Alcotest.test_case "queued delays allocate little" `Quick
            test_sim_queued_delay_allocation;
          Alcotest.test_case "proc ops outside a process" `Quick
            test_sim_proc_ops_outside_process;
        ] );
      ( "sync",
        [
          Alcotest.test_case "signal broadcast wakes all" `Quick
            test_signal_broadcast_wakes_all;
          Alcotest.test_case "signal wait with timeout" `Quick
            test_signal_wait_timeout;
          Alcotest.test_case "signal wait_any" `Quick test_signal_wait_any;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox try_recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "mailbox vhost-rx script" `Quick
            test_mailbox_vhost_rx_script;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "keyed split stable" `Quick
            test_prng_keyed_split_stable;
          Alcotest.test_case "keyed split siblings uncorrelated" `Quick
            test_prng_keyed_split_siblings_uncorrelated;
          Alcotest.test_case "float in [0,1)" `Quick test_prng_float_range;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          QCheck_alcotest.to_alcotest prop_int_in_range;
        ] );
    ]
