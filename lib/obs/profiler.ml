(* Self-profiler: where does the *host* spend wall-clock and allocation
   while simulating?

   The profiler is an ordinary span sink plus a Simulator dispatch
   observer — it never advances virtual time, so installing it cannot
   change simulation results (the same contract every other sink obeys).

   Attribution works on host-time *segments*. Spans arrive at their
   close, children before parents (a post-order traversal of the real
   call tree), so the host work performed since the previous transition
   point — the previous span close, or a dispatch hook — is charged as
   the closing span's *exclusive* cost. Segment boundaries share one
   running clock read, so the sum of all exclusive charges telescopes to
   exactly the profiled region's measured wall time; `svt_sim profile
   --validate` asserts that invariant to within 5%.

   Tree structure is recovered from virtual time: a per-vCPU pending
   list holds closed spans awaiting their parent, and a newly closed
   span adopts every pending span it encloses. Spans nothing encloses
   (vm-exit episodes, halts) fold into the aggregate tree under a
   per-vCPU root once the pending list outgrows its cap, and at [stop].

   The sink's own bookkeeping (the span's node, its adoption of pending
   spans, its label) is a segment of its own, closed when the sink
   returns and charged to [engine;profiler], so it inflates no simulator
   frame.

   Allocation is charged per segment from the minor-allocation counter
   ([Gc.minor_words], exact at any point); whole-run totals including
   major-heap words come from [allocated_words] at [start]/[stop]. *)

module Simulator = Svt_engine.Simulator

(* Host seconds and allocated words (minor counter). A record of floats
   only is stored flat, so adding to one allocates nothing: a segment
   close leaves almost no garbage of its own to charge to the next. *)
type meter = { mutable secs : float; mutable alloc : float }

type node = {
  mutable calls : int;
  excl : meter; (* exclusive cost *)
  kids : (string, node) Hashtbl.t;
}

let new_node () =
  { calls = 0; excl = { secs = 0.0; alloc = 0.0 }; kids = Hashtbl.create 4 }

let rec merge_into ~(dst : node) (src : node) =
  dst.calls <- dst.calls + src.calls;
  dst.excl.secs <- dst.excl.secs +. src.excl.secs;
  dst.excl.alloc <- dst.excl.alloc +. src.excl.alloc;
  Hashtbl.iter (fun label kid -> attach dst label kid) src.kids

and attach parent label kid =
  match Hashtbl.find_opt parent.kids label with
  | Some existing -> merge_into ~dst:existing kid
  | None -> Hashtbl.add parent.kids label kid

(* A closed span awaiting its (virtually enclosing) parent. *)
type pitem = { start : Svt_engine.Time.t; stop : Svt_engine.Time.t; node : node;
               label : string }

type t = {
  clock : unit -> float; (* host seconds *)
  words : unit -> float; (* allocated words so far (monotonic) *)
  root : node;
  engine_setup : node; (* from [start] to the first event *)
  engine_queue : node; (* between-event engine bookkeeping *)
  engine_dispatch : node; (* in-event work after the last span close *)
  engine_other : node; (* outside the event loop (setup, metric assembly) *)
  engine_profiler : node; (* the sink's own bookkeeping *)
  pending : (int, pitem list ref) Hashtbl.t; (* per vcpu, arrival order *)
  mutable running : bool;
  seg : meter; (* clock and words counter at the current segment's start *)
  mutable t_start : float;
  mutable t_stop : float;
  mutable words_at_start : float;
  mutable alloc_words : float; (* allocated_words delta, set at stop *)
  mutable spans : int;
  mutable events : int;
}

(* Cap on closed spans waiting for a parent, per vCPU. Episodes are a
   handful of legs deep; anything older than the cap is an episode root
   and folds into the aggregate tree. *)
let max_pending = 64

let default_clock = Unix.gettimeofday
let default_words () = Gc.minor_words ()

let create ?(clock = default_clock) ?(words = default_words) () =
  let t =
    {
      clock; words;
      root = new_node ();
      engine_setup = new_node ();
      engine_queue = new_node ();
      engine_dispatch = new_node ();
      engine_other = new_node ();
      engine_profiler = new_node ();
      pending = Hashtbl.create 8;
      running = false;
      seg = { secs = 0.0; alloc = 0.0 };
      t_start = 0.0; t_stop = 0.0;
      words_at_start = 0.0; alloc_words = 0.0;
      spans = 0; events = 0;
    }
  in
  let engine = new_node () in
  attach t.root "engine" engine;
  attach engine "setup" t.engine_setup;
  attach engine "queue" t.engine_queue;
  attach engine "dispatch" t.engine_dispatch;
  attach engine "other" t.engine_other;
  attach engine "profiler" t.engine_profiler;
  t

(* Close the current host-time segment, charging it exclusively to
   [node]. One clock read ends this segment and starts the next, so the
   charges telescope: their sum is exactly (last read - t_start). *)
let segment t node =
  let now = t.clock () in
  let w = t.words () in
  node.excl.secs <- node.excl.secs +. (now -. t.seg.secs);
  node.excl.alloc <- node.excl.alloc +. (w -. t.seg.alloc);
  t.seg.secs <- now;
  t.seg.alloc <- w

let sanitize v =
  String.map (function ';' | ' ' | '\n' | '\t' -> '_' | c -> c) v

let label_of_span (sp : Span.t) =
  let vals = List.filter_map (fun k -> Span.tag sp k) Span.key_tags in
  let vals =
    match Span.tag sp "error" with
    | Some _ -> vals @ [ "ERR" ]
    | None -> vals
  in
  match vals with
  | [] -> Span.kind_name sp.Span.kind
  | vs ->
      Span.kind_name sp.Span.kind ^ ":" ^ sanitize (String.concat "," vs)

let vcpu_label vcpu =
  if vcpu < 0 then "host" else Printf.sprintf "vcpu%d" vcpu

let pending_for t vcpu =
  match Hashtbl.find_opt t.pending vcpu with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.pending vcpu r;
      r

let fold_root t vcpu (p : pitem) =
  let vnode =
    match Hashtbl.find_opt t.root.kids (vcpu_label vcpu) with
    | Some n -> n
    | None ->
        let n = new_node () in
        Hashtbl.add t.root.kids (vcpu_label vcpu) n;
        n
  in
  attach vnode p.label p.node

let sink t (sp : Span.t) =
  if t.running then begin
    let node = new_node () in
    node.calls <- 1;
    segment t node;
    t.spans <- t.spans + 1;
    let lst = pending_for t sp.Span.vcpu in
    (* adopt every pending span this one (virtually) encloses *)
    let mine, rest =
      List.partition
        (fun (p : pitem) ->
          sp.Span.start <= p.start && p.stop <= sp.Span.stop)
        !lst
    in
    List.iter (fun (p : pitem) -> attach node p.label p.node) mine;
    let item =
      { start = sp.Span.start; stop = sp.Span.stop; node;
        label = label_of_span sp }
    in
    let rest = rest @ [ item ] in
    (* bound memory: the oldest pending spans past the cap are episode
       roots nothing will enclose — fold them now *)
    let overflow = List.length rest - max_pending in
    if overflow > 0 then begin
      let folded = List.filteri (fun i _ -> i < overflow) rest in
      List.iter (fun p -> fold_root t sp.Span.vcpu p) folded;
      lst := List.filteri (fun i _ -> i >= overflow) rest
    end
    else lst := rest;
    (* the bookkeeping above is the profiler's own work: charge it to
       its own frame rather than to whichever segment closes next *)
    segment t t.engine_profiler
  end

let observer t =
  {
    Simulator.on_event_start =
      (fun () ->
        if t.running then begin
          (* before the first event the region is still building the
             run (devices, guest programs), not serving the queue *)
          segment t (if t.events = 0 then t.engine_setup else t.engine_queue);
          t.events <- t.events + 1
        end);
    on_event_end =
      (fun () ->
        if t.running then segment t t.engine_dispatch);
  }

(* On OCaml 5 [Gc.quick_stat]'s minor count only advances when a minor
   collection runs, so emptying the minor heap first makes the total
   exact. Survivors of that collection are counted in both the minor and
   major totals; subtracting the promoted words cancels them. *)
let allocated_words () =
  Gc.minor ();
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let start t =
  t.words_at_start <- allocated_words ();
  t.t_start <- t.clock ();
  t.seg.secs <- t.t_start;
  t.seg.alloc <- t.words ();
  t.running <- true

let stop t =
  if t.running then begin
    segment t t.engine_other;
    t.running <- false;
    t.t_stop <- t.seg.secs;
    t.alloc_words <- allocated_words () -. t.words_at_start;
    Hashtbl.iter
      (fun vcpu lst ->
        List.iter (fun p -> fold_root t vcpu p) !lst;
        lst := [])
      t.pending
  end

(* ---- summary accessors ---- *)

let wall_s t =
  (if t.running then t.clock () else t.t_stop) -. t.t_start

let rec excl_total_s (n : node) =
  Hashtbl.fold (fun _ kid acc -> acc +. excl_total_s kid) n.kids n.excl.secs

let exclusive_total_s t = excl_total_s t.root
let spans t = t.spans
let events t = t.events
let word_bytes = Sys.word_size / 8
let allocated_bytes t = t.alloc_words *. float_of_int word_bytes

(* ---- folded stacks ---- *)

type metric = Mtime | Malloc

(* One line per tree path: "frame;frame;frame <integer>", the format
   flamegraph.pl / speedscope / inferno all load. The value is exclusive
   nanoseconds (or exclusive allocated bytes with [Malloc]); inclusive
   times are what the flamegraph tools derive by summation. *)
let folded ?(metric = Mtime) t =
  let b = Buffer.create 4096 in
  let value (n : node) =
    match metric with
    | Mtime -> Float.round (n.excl.secs *. 1e9)
    | Malloc -> Float.round (n.excl.alloc *. float_of_int word_bytes)
  in
  let rec walk path n =
    let v = value n in
    if v >= 1.0 && path <> [] then
      Buffer.add_string b
        (Printf.sprintf "%s %.0f\n" (String.concat ";" (List.rev path)) v);
    let kids =
      Hashtbl.fold (fun label kid acc -> (label, kid) :: acc) n.kids []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter (fun (label, kid) -> walk (label :: path) kid) kids
  in
  walk [] t.root;
  Buffer.contents b

let write_folded ?metric t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (folded ?metric t))

(* ---- flat rows (table / json) ---- *)

type row = {
  path : string;
  calls : int;
  excl_ns : float;
  incl_ns : float;
  excl_bytes : float;
}

let rows t =
  let acc = ref [] in
  let rec walk path n =
    let incl = excl_total_s n in
    if path <> [] then
      acc :=
        {
          path = String.concat ";" (List.rev path);
          calls = n.calls;
          excl_ns = n.excl.secs *. 1e9;
          incl_ns = incl *. 1e9;
          excl_bytes = n.excl.alloc *. float_of_int word_bytes;
        }
        :: !acc;
    Hashtbl.iter (fun label kid -> walk (label :: path) kid) n.kids
  in
  walk [] t.root;
  List.sort (fun a b -> compare b.excl_ns a.excl_ns) !acc

(* Rows the table prints; the rest are summarized in one line. *)
let limit = 40

let pp_table ppf t =
  let rows = rows t in
  let shown = List.filteri (fun i _ -> i < limit) rows in
  Format.fprintf ppf "%12s %12s %9s %12s  %s@." "excl (us)" "incl (us)"
    "calls" "alloc (KB)" "path";
  List.iter
    (fun r ->
      Format.fprintf ppf "%12.1f %12.1f %9d %12.1f  %s@." (r.excl_ns /. 1e3)
        (r.incl_ns /. 1e3) r.calls (r.excl_bytes /. 1e3) r.path)
    shown;
  if List.length rows > limit then
    Format.fprintf ppf "  ... %d more paths@." (List.length rows - limit)

let to_json ?(extra = []) t =
  let b = Buffer.create 4096 in
  let rec node_json label (n : node) =
    Buffer.add_string b "{\"name\":";
    Export.buf_json_string b label;
    Buffer.add_string b
      (Printf.sprintf ",\"calls\":%d,\"excl_ns\":%.0f,\"excl_bytes\":%.0f"
         n.calls (n.excl.secs *. 1e9) (n.excl.alloc *. float_of_int word_bytes));
    let kids =
      Hashtbl.fold (fun l kid acc -> (l, kid) :: acc) n.kids []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    if kids <> [] then begin
      Buffer.add_string b ",\"children\":[";
      List.iteri
        (fun i (l, kid) ->
          if i > 0 then Buffer.add_char b ',';
          node_json l kid)
        kids
    end;
    if kids <> [] then Buffer.add_char b ']';
    Buffer.add_char b '}'
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"profile\":\"svt\",\"wall_ns\":%.0f,\"excl_total_ns\":%.0f,\
        \"spans\":%d,\"events\":%d,\"allocated_bytes\":%.0f"
       (wall_s t *. 1e9)
       (exclusive_total_s t *. 1e9)
       t.spans t.events (allocated_bytes t));
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Export.buf_json_string b k;
      Buffer.add_string b (Printf.sprintf ":%.17g" v))
    extra;
  Buffer.add_string b ",\"tree\":";
  node_json "root" t.root;
  Buffer.add_string b "}\n";
  Buffer.contents b
