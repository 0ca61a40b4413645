(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names (and adds bounds and directions); the smoke
   check fails when the two disagree. *)

(* End to end, measured with tracing off: one sample per timed rep. *)
let end_to_end = [ ("work_per_s", "1/s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

(* The profiler span kinds that name one step of the trap path, and the
   per-layer metric prefix each is reported under. *)
let span_kinds =
  let module Span = Svt_obs.Span in
  [
    (Span.Vm_exit, "core.vm_exit");
    (Span.World_switch, "core.world_switch");
    (Span.Svt_trap, "core.svt_trap");
    (Span.Svt_stall, "core.svt_stall");
    (Span.Svt_resume, "core.svt_resume");
    (Span.Irq_inject, "core.irq_inject");
    (Span.Halt, "core.halt");
    (Span.Vmcs_transform, "vmcs.transform");
    (Span.Ring_send, "channel.ring_send");
    (Span.Ring_recv, "channel.ring_recv");
  ]

(* Per layer, from the traced rep and the probes around it. A workload
   that does not exercise (or cannot observe) a layer reports 0. *)
let per_layer =
  [
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.alloc_bytes_per_event", "B");
    ("engine.queue_adds", "count");
    ("engine.queue_cancels", "count");
    ("engine.queue_peak_live", "count");
    ("engine.queue_self_s", "s");
    ("engine.dispatch_self_s", "s");
    ("core.of_config_us_p50", "us");
    ("core.of_config_us_p90", "us");
    ("core.of_config_kb", "KB");
    ("core.l2_exits", "count");
  ]
  @ List.concat_map
      (fun (_, prefix) -> [ (prefix ^ "_self_s", "s"); (prefix ^ "_calls", "count") ])
      span_kinds
  @ [
      ("mem.copy_ns_per_byte", "ns/B");
      ("mem.copy_alloc_bytes_per_byte", "B/B");
      ("virtio.bytes_delivered", "B");
      ("fuzz.exec_ms_p50", "ms");
      ("fuzz.exec_ms_p90", "ms");
      ("fuzz.cov_bits", "count");
      ("cluster.epoch_ms_p50", "ms");
      ("cluster.epoch_ms_p90", "ms");
      ("cluster.readmissions", "count");
      ("obs.trace_overhead_ratio", "ratio");
      ("obs.unattributed_share", "ratio");
    ]

(* Reported beside the end-to-end metrics but not gated: the unscaled
   host times, and the reference they were scaled by. *)
let raw = [ ("raw_work_per_s", "1/s"); ("raw_setup_s", "s"); ("reference_ms", "ms") ]

(* Failed over attempted reps: end to end, and worse on any increase,
   but not in BENCHMARK.json, whose metrics must never read 0. *)
let failed_ratio = ("failed_ratio", "ratio")

let unit_of name = List.assoc name ((failed_ratio :: end_to_end) @ raw @ per_layer)
