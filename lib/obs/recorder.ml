(* The per-machine observability bundle: one probe for the instrumented
   hot paths and the optional structured sinks.
   Freshly created recorders have no span sink installed — the null-sink
   state — so observability is free until someone asks for it. *)

module Time = Svt_engine.Time

type t = {
  probe : Probe.t;
  clock : unit -> Time.t;
  mutable timeline : Timeline.t option;
  mutable chrome : Chrome_trace.t option;
}

let create ~clock () =
  {
    probe = Probe.create ~clock ();
    clock;
    timeline = None;
    chrome = None;
  }

let probe t = t.probe

(* Install-once sink accessors: the first call creates and subscribes,
   later calls return the same sink. *)
let enable_timeline t =
  match t.timeline with
  | Some tl -> tl
  | None ->
      let tl = Timeline.create () in
      Probe.subscribe t.probe (Timeline.sink tl);
      t.timeline <- Some tl;
      tl

let enable_chrome t =
  match t.chrome with
  | Some ct -> ct
  | None ->
      let ct = Chrome_trace.create () in
      Probe.subscribe t.probe (Chrome_trace.sink ct);
      t.chrome <- Some ct;
      ct
