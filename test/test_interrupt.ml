(* Tests for the interrupt subsystem: LAPIC IRR/ISR discipline, priority,
   EOI and the TSC-deadline timer. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Lapic = Svt_interrupt.Lapic

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make () =
  let sim = Simulator.create () in
  (sim, Lapic.create sim)

(* Vectors in the order the LAPIC reported them pending. *)
let notifications l =
  let seen = ref [] in
  Lapic.set_on_pending l (fun v -> seen := v :: !seen);
  fun () -> List.rev !seen

let test_lapic_raise_ack_eoi () =
  let _, l = make () in
  Lapic.raise_vector l 0x51;
  checkb "pending" true (Lapic.has_pending l);
  (match Lapic.ack l with
  | Some v ->
      checki "vector" 0x51 v;
      checkb "in service" true (Lapic.in_service l 0x51)
  | None -> Alcotest.fail "should ack");
  checkb "irr cleared" false (Lapic.has_pending l);
  Lapic.eoi l;
  checkb "isr cleared" false (Lapic.in_service l 0x51)

let test_lapic_priority_order () =
  let _, l = make () in
  Lapic.raise_vector l 0x30;
  Lapic.raise_vector l 0xE0;
  Lapic.raise_vector l 0x80;
  checkb "highest vector first" true (Lapic.ack l = Some 0xE0);
  checkb "then middle" true (Lapic.ack l = Some 0x80);
  checkb "then low" true (Lapic.ack l = Some 0x30);
  checkb "drained" true (Lapic.ack l = None)

let test_lapic_coalescing () =
  let _, l = make () in
  let seen = notifications l in
  Lapic.raise_vector l 0x51;
  Lapic.raise_vector l 0x51;
  Lapic.raise_vector l 0x51;
  checkb "one notification" true (seen () = [ 0x51 ]);
  checkb "delivered" true (Lapic.ack l = Some 0x51);
  checkb "single delivery" true (Lapic.ack l = None)

let test_lapic_on_pending_callback () =
  let _, l = make () in
  let seen = ref [] in
  Lapic.set_on_pending l (fun v -> seen := v :: !seen);
  Lapic.raise_vector l 0x40;
  Lapic.raise_vector l 0x40 (* coalesced: no second callback *);
  Lapic.raise_vector l 0x41;
  checkb "callbacks for fresh vectors" true (List.rev !seen = [ 0x40; 0x41 ])

let test_lapic_bad_vector () =
  let _, l = make () in
  Alcotest.check_raises "low vectors reserved"
    (Invalid_argument "Lapic: bad vector") (fun () -> Lapic.raise_vector l 3)

let test_lapic_deadline_fires () =
  let sim, l = make () in
  let fired_at = ref Time.zero in
  Lapic.set_on_pending l (fun _ -> fired_at := Simulator.now sim);
  Lapic.arm_deadline l ~deadline:(Time.of_us 50);
  Simulator.run sim;
  checki "fires at deadline" (Time.of_us 50) !fired_at;
  checkb "timer vector pending" true (Lapic.ack l = Some 0xEF)

let test_lapic_deadline_rearm_replaces () =
  let sim, l = make () in
  let seen = notifications l in
  Lapic.arm_deadline l ~deadline:(Time.of_us 50);
  Lapic.arm_deadline l ~deadline:(Time.of_us 80);
  Simulator.run sim;
  checki "single fire" 1 (List.length (seen ()));
  checki "at the replaced deadline" (Time.of_us 80) (Simulator.now sim)

let test_lapic_deadline_disarm () =
  let sim, l = make () in
  Lapic.arm_deadline l ~deadline:(Time.of_us 50);
  Lapic.arm_deadline l ~deadline:Time.zero;
  Simulator.run sim;
  checkb "never fires" false (Lapic.has_pending l)

let test_lapic_past_deadline_fires_now () =
  let sim, l = make () in
  let fired_at = ref Time.zero in
  Lapic.set_on_pending l (fun _ -> fired_at := Simulator.now sim);
  Simulator.spawn sim (fun () ->
      Proc.delay (Time.of_us 100);
      (* deadline already in the past: must fire immediately, as the MSR does *)
      Lapic.arm_deadline l ~deadline:(Time.of_us 10));
  Simulator.run sim;
  checki "fired at once" (Time.of_us 100) !fired_at

(* The LAPIC against a plain model: two 256-slot registers that every
   query scans in full. Vectors are drawn from a narrow band half the
   time, so re-raises, acks of an in-service vector and EOIs of an empty
   ISR all come up. *)
type lapic_op = Raise of int | Ack | Eoi

let gen_lapic_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun v -> Raise v) (oneof [ int_range 16 255; int_range 30 33 ]));
        (2, return Ack);
        (2, return Eoi) ])

let print_lapic_op = function
  | Raise v -> Printf.sprintf "raise %d" v
  | Ack -> "ack"
  | Eoi -> "eoi"

let prop_lapic_matches_scan =
  QCheck.Test.make ~name:"lapic matches a 256-slot scan" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_lapic_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_lapic_op))
    (fun ops ->
      let _, l = make () in
      let irr = Array.make 256 false and isr = Array.make 256 false in
      let highest reg =
        let rec scan v = if v < 0 then None else if reg.(v) then Some v else scan (v - 1) in
        scan 255
      in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Raise v ->
                Lapic.raise_vector l v;
                irr.(v) <- true;
                true
            | Ack ->
                let expected = highest irr in
                Option.iter
                  (fun v ->
                    irr.(v) <- false;
                    isr.(v) <- true)
                  expected;
                Lapic.ack l = expected
            | Eoi ->
                Option.iter (fun v -> isr.(v) <- false) (highest isr);
                Lapic.eoi l;
                true
          in
          same_result
          && Lapic.has_pending l = Array.exists Fun.id irr
          && List.for_all
               (fun v -> Lapic.in_service l v = isr.(v))
               (List.init 256 Fun.id))
        ops)

let () =
  Alcotest.run "svt_interrupt"
    [
      ( "lapic",
        [
          Alcotest.test_case "raise/ack/eoi" `Quick test_lapic_raise_ack_eoi;
          Alcotest.test_case "priority order" `Quick test_lapic_priority_order;
          Alcotest.test_case "coalescing" `Quick test_lapic_coalescing;
          Alcotest.test_case "pending callback" `Quick test_lapic_on_pending_callback;
          Alcotest.test_case "bad vector" `Quick test_lapic_bad_vector;
          QCheck_alcotest.to_alcotest prop_lapic_matches_scan;
        ] );
      ( "tsc-deadline",
        [
          Alcotest.test_case "fires at deadline" `Quick test_lapic_deadline_fires;
          Alcotest.test_case "re-arm replaces" `Quick test_lapic_deadline_rearm_replaces;
          Alcotest.test_case "disarm" `Quick test_lapic_deadline_disarm;
          Alcotest.test_case "past deadline fires immediately" `Quick
            test_lapic_past_deadline_fires_now;
        ] );
    ]
