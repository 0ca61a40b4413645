(* Tests for summaries, histograms, the paper's convergence procedure,
   metrics and tables. *)

module Summary = Svt_stats.Summary
module Histogram = Svt_stats.Histogram
module Convergence = Svt_stats.Convergence
module Metrics = Svt_stats.Metrics
module Table = Svt_stats.Table

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-6)) msg

(* A counter's value as the sorted listing reports it (0 when absent). *)
let counter m name = Option.value ~default:0 (List.assoc_opt name (Metrics.counters m))

(* --- Summary ------------------------------------------------------------- *)

let test_summary_basic () =
  let s = Summary.of_list [ 2.0; 4.0; 6.0 ] in
  checki "count" 3 (Summary.count s);
  checkf "mean" 4.0 (Summary.mean s);
  checkf "stddev" 2.0 (Summary.stddev s)

let test_summary_empty_nan () =
  let s = Summary.of_list [] in
  checkb "mean nan" true (Float.is_nan (Summary.mean s));
  checkb "stddev nan" true (Float.is_nan (Summary.stddev s))

let prop_summary_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.of_list xs in
      Summary.mean s >= List.fold_left Float.min infinity xs -. 1e-9
      && Summary.mean s <= List.fold_left Float.max neg_infinity xs +. 1e-9)

(* --- Histogram ----------------------------------------------------------- *)

let test_histogram_exact_small_values () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5 ];
  checki "count" 5 (Histogram.count h);
  checki "max" 5 (Histogram.max_value h);
  checki "median" 3 (Histogram.percentile h 50.0)

let test_histogram_percentile_monotone () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.add h i
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p90 = Histogram.percentile h 90.0 in
  let p99 = Histogram.percentile h 99.0 in
  checkb "p50<=p90" true (p50 <= p90);
  checkb "p90<=p99" true (p90 <= p99);
  (* bounded relative error *)
  checkb "p50 near 5000" true (abs (p50 - 5_000) < 400);
  checkb "p99 near 9900" true (abs (p99 - 9_900) < 600)

let test_histogram_large_values () =
  let h = Histogram.create () in
  Histogram.add h 1_000_000_000;
  Histogram.add h 2_000_000_000;
  checkb "p99 within 5% of max" true
    (let p = Histogram.percentile h 99.0 in
     float_of_int (abs (p - 2_000_000_000)) /. 2e9 < 0.05)

let test_histogram_clamps_overflow () =
  (* values beyond the top bucket are clamped into it, not dropped:
     count, mean and max still account for them *)
  let h = Histogram.create () in
  Histogram.add h 100;
  Histogram.add h max_int;
  checki "both counted" 2 (Histogram.count h);
  checki "max exact" max_int (Histogram.max_value h);
  checkf "mean sees the sample"
    ((100.0 +. float_of_int max_int) /. 2.0)
    (Histogram.mean h);
  (* percentile caps at the observed max, never beyond *)
  checkb "p99 <= max" true (Histogram.percentile h 99.0 <= max_int);
  checkb "p99 above the small sample" true (Histogram.percentile h 99.0 > 100)

(* The rank is clamped to 1: p <= 0 reads the lowest non-empty bucket's
   upper bound, which for a bucketed value is above the exact minimum. *)
let test_histogram_percentile_floor () =
  let h = Histogram.create () in
  checki "empty" 0 (Histogram.percentile h 0.0);
  List.iter (Histogram.add h) [ 1000; 7; 5000 ];
  checki "p0 is the exact unit bucket" 7 (Histogram.percentile h 0.0);
  checki "negative p clamps too" 7 (Histogram.percentile h (-5.0));
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1000; 5000 ];
  checki "p0 is the lowest bucket's bound" 1007 (Histogram.percentile h 0.0);
  checkb "no lower than the smallest sample" true (Histogram.percentile h 0.0 >= 1000)

let prop_histogram_percentile_error =
  QCheck.Test.make ~name:"p100 within 4% of true max" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let true_max = List.fold_left max 0 xs in
      let p = Histogram.percentile h 100.0 in
      float_of_int (abs (p - true_max)) <= (0.04 *. float_of_int true_max) +. 1.0)

(* --- Convergence --------------------------------------------------------- *)

let test_convergence_constant_converges () =
  let r = Convergence.run (fun () -> 5.0) in
  checkb "converged" true r.Convergence.converged;
  checkf "mean" 5.0 r.Convergence.mean

let test_convergence_outlier_rejection () =
  let samples = List.init 100 (fun i -> if i = 0 then 1000.0 else 10.0) in
  let kept, rejected = Convergence.reject_outliers samples in
  checki "one outlier rejected" 1 rejected;
  checkb "outlier gone" true (not (List.mem 1000.0 kept))

let test_convergence_noisy_needs_more_samples () =
  let g = Svt_engine.Prng.create 42 in
  let r =
    Convergence.run
      (fun () -> Svt_engine.Prng.normal g ~mean:100.0 ~stddev:5.0)
  in
  checkb "converged" true r.Convergence.converged;
  checkb "needed more than the minimum" true
    (r.Convergence.samples_used > 16);
  checkb "mean close" true (Float.abs (r.Convergence.mean -. 100.0) < 2.0)

let test_convergence_summarize_flags () =
  let r = Convergence.summarize [ 1.0; 2.0 ] in
  checkb "too few samples: not converged" true (not r.Convergence.converged)

(* --- Metrics ------------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let cell = Metrics.counter_ref m "exits" in
  incr cell;
  incr (Metrics.counter_ref m "exits");
  checki "counter" 2 (counter m "exits");
  checki "missing counter" 0 (counter m "nope")

(* Charge a span to a timer through its cell, as the trap path does. *)
let add_time m name span =
  let cell = Metrics.timer_ref m name in
  cell := !cell + Svt_engine.Time.to_ns span

let test_metrics_time_share () =
  let m = Metrics.create () in
  add_time m "ept" (Svt_engine.Time.of_us 30);
  add_time m "msr" (Svt_engine.Time.of_us 10);
  checkf "share" 0.3
    (Metrics.time_share m "ept" ~whole:(Svt_engine.Time.of_us 100))

(* time_share against a zero-length whole must be 0.0, never a division
   by zero — the hypervisor computes shares before any time may have
   been charged. *)
let test_metrics_time_share_zero_whole () =
  let m = Metrics.create () in
  add_time m "ept" (Svt_engine.Time.of_us 30);
  checkf "zero whole" 0.0
    (Metrics.time_share m "ept" ~whole:Svt_engine.Time.zero);
  checkf "unknown timer, nonzero whole" 0.0
    (Metrics.time_share m "nope" ~whole:(Svt_engine.Time.of_us 10))

(* Reads of never-registered names are total and must not register the
   name as a side effect (counter/time are pure observers). *)
let test_metrics_unknown_reads () =
  let m = Metrics.create () in
  checki "unknown counter" 0 (counter m "ghost");
  checki "unknown timer" 0 (Svt_engine.Time.to_ns (Metrics.time m "ghost"));
  checki "reads registered nothing" 0 (List.length (Metrics.counters m))

(* Counter listings sort by name: insertion order must not leak
   through. *)
let test_metrics_counters_sorted () =
  let m = Metrics.create () in
  incr (Metrics.counter_ref m "b-exit");
  incr (Metrics.counter_ref m "a-exit");
  match Metrics.counters m with
  | [ ("a-exit", 1); ("b-exit", 1) ] -> ()
  | l -> Alcotest.fail (Printf.sprintf "unsorted counters (%d)" (List.length l))

(* --- Table --------------------------------------------------------------- *)

let test_table_renders_aligned () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "val" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name"; "22" ];
  let s = Table.render t in
  checkb "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  checki "rows + header + separator + trailing" 5 (List.length lines);
  (* all lines same width *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  checkb "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_arity_check () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

let () =
  Alcotest.run "svt_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basic moments" `Quick test_summary_basic;
          Alcotest.test_case "empty is nan" `Quick test_summary_empty_nan;
          QCheck_alcotest.to_alcotest prop_summary_mean_bounded;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact small values" `Quick
            test_histogram_exact_small_values;
          Alcotest.test_case "percentiles monotone and accurate" `Quick
            test_histogram_percentile_monotone;
          Alcotest.test_case "large values" `Quick test_histogram_large_values;
          Alcotest.test_case "p <= 0 reads the lowest bucket" `Quick
            test_histogram_percentile_floor;
          Alcotest.test_case "clamps overflow" `Quick
            test_histogram_clamps_overflow;
          QCheck_alcotest.to_alcotest prop_histogram_percentile_error;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "constant converges" `Quick
            test_convergence_constant_converges;
          Alcotest.test_case "4-sigma outlier rejection" `Quick
            test_convergence_outlier_rejection;
          Alcotest.test_case "noisy source needs more samples" `Quick
            test_convergence_noisy_needs_more_samples;
          Alcotest.test_case "summarize flags non-convergence" `Quick
            test_convergence_summarize_flags;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "time shares" `Quick test_metrics_time_share;
          Alcotest.test_case "time share of zero whole" `Quick
            test_metrics_time_share_zero_whole;
          Alcotest.test_case "unknown-name reads" `Quick
            test_metrics_unknown_reads;
          Alcotest.test_case "counters sorted" `Quick test_metrics_counters_sorted;
        ] );
      ( "table",
        [
          Alcotest.test_case "aligned rendering" `Quick test_table_renders_aligned;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
        ] );
    ]
