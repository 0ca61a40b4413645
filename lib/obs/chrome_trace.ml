(* Sink 2: Chrome trace-event JSON export. Collects spans (bounded) and
   serializes them as complete ("ph":"X") events in the trace-event
   format understood by Perfetto and chrome://tracing: one pid for the
   simulated machine, one tid per vCPU, timestamps in microseconds of
   virtual time, span tags as "args".

   The JSON printer lives here on purpose: svt_obs sits below the
   campaign layer (which has its own JSONL writer) and the two must not
   depend on each other. *)

module Time = Svt_engine.Time

type t = {
  mutable spans : Span.t list; (* newest first *)
  mutable kept : int;
  mutable dropped : int;
}

(* Spans retained; later ones are counted in [dropped]. *)
let limit = 1_000_000

let create () = { spans = []; kept = 0; dropped = 0 }

let sink t (s : Span.t) =
  if t.kept < limit then begin
    t.spans <- s :: t.spans;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1

let dropped t = t.dropped

(* Microseconds with nanosecond resolution, the unit of the "ts"/"dur"
   fields. *)
let buf_us b ns = Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int ns /. 1e3))

(* Track (tid) assignment: spans tagged with a hardware lane get one
   Perfetto track per hardware thread (so sibling stalls line up on the
   physical topology), in a tid range disjoint from the per-vCPU tracks
   that untagged spans keep. 32 bounds contexts-per-core, not vCPUs. *)
let lane_tid (core, ctx) = 1000 + (core * 32) + ctx

(* A tagged span's (core, context) lane; a span with a core but no
   context (-1) sits on context 0. *)
let lane (s : Span.t) = (s.Span.core, max 0 s.Span.ctx)

let span_tid (s : Span.t) =
  if Span.has_lane s then lane_tid (lane s) else s.Span.vcpu + 1

let buf_event b (s : Span.t) =
  Buffer.add_string b "{\"name\":";
  Export.buf_json_string b (Span.kind_name s.Span.kind);
  Buffer.add_string b ",\"cat\":\"svt\",\"ph\":\"X\",\"pid\":0,\"tid\":";
  Buffer.add_string b (string_of_int (span_tid s));
  Buffer.add_string b ",\"ts\":";
  buf_us b (Time.to_ns s.Span.start);
  Buffer.add_string b ",\"dur\":";
  buf_us b (Span.duration_ns s);
  Buffer.add_string b ",\"args\":{\"level\":";
  Buffer.add_string b (string_of_int s.Span.level);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Export.buf_json_string b k;
      Buffer.add_char b ':';
      Export.buf_json_string b v)
    s.Span.tags;
  Buffer.add_string b "}}"

(* Metadata events so Perfetto labels the rows: one thread_name per
   vCPU track (untagged spans) and one per hardware-thread lane. *)
let buf_metadata b ~vcpus ~lanes =
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"svt-sim\"}}";
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf
           ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}"
           (v + 1)
           (if v < 0 then "\"host\"" else Printf.sprintf "\"vcpu%d\"" v)))
    vcpus;
  List.iter
    (fun ((core, ctx) as l) ->
      Buffer.add_string b
        (Printf.sprintf
           ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"core%d.t%d\"}}"
           (lane_tid l) core ctx))
    lanes

let to_buffer t b =
  let spans =
    List.stable_sort
      (fun (a : Span.t) (c : Span.t) -> Time.compare a.Span.start c.Span.start)
      (List.rev t.spans)
  in
  let vcpus =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Span.t) ->
           if Span.has_lane s then None else Some s.Span.vcpu)
         spans)
  in
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Span.t) -> if Span.has_lane s then Some (lane s) else None)
         spans)
  in
  Buffer.add_string b "{\"traceEvents\":[";
  buf_metadata b ~vcpus ~lanes;
  List.iter
    (fun s ->
      Buffer.add_char b ',';
      buf_event b s)
    spans;
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}"

let to_string t =
  let b = Buffer.create (256 + (t.kept * 160)) in
  to_buffer t b;
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = Buffer.create (256 + (t.kept * 160)) in
      to_buffer t b;
      Buffer.output_buffer oc b)
