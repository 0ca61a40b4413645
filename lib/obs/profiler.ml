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

   Tree structure is recovered from virtual time. Spans close children
   first, so the spans a new span encloses are the newest closed spans
   of its vCPU: each vCPU keeps a newest-first stack of closed spans, and
   the sink pops the run of enclosed ones off its head as the new span's
   children. Spans nothing encloses (vm-exit episodes, halts) are folded
   into the aggregate tree under a per-vCPU root, in batches once the
   stack outgrows twice its cap, and at [stop]. Each span reaches the
   aggregate tree exactly once, through one [fold].

   The sink's own bookkeeping (the closed span, its adoption of pending
   spans, its label, the batch folds) is a segment of its own, closed
   when the sink returns and charged to [engine;profiler], so it inflates
   no simulator frame.

   Allocation is charged per segment from the minor-allocation counter
   ([Gc.minor_words], exact at any point); whole-run totals including
   major-heap words come from [allocated_words] at [start]/[stop]. *)

module Simulator = Svt_engine.Simulator

(* Host seconds and allocated words (minor counter). A record of floats
   only is stored flat, so adding to one allocates nothing: a segment
   close leaves almost no garbage of its own to charge to the next. *)
type meter = { mutable secs : float; mutable alloc : float }

(* One node per distinct path of the aggregate tree. *)
type node = {
  mutable calls : int;
  excl : meter; (* exclusive cost *)
  mutable kids : (string * node) list;
}

let new_node () = { calls = 0; excl = { secs = 0.0; alloc = 0.0 }; kids = [] }

(* The child of [parent] named [label], made on first use. *)
let child parent label =
  let rec find = function
    | (l, n) :: _ when String.equal l label -> n
    | _ :: rest -> find rest
    | [] ->
        let n = new_node () in
        parent.kids <- (label, n) :: parent.kids;
        n
  in
  find parent.kids

(* A closed span awaiting its (virtually enclosing) parent. *)
type closed = {
  start : Svt_engine.Time.t;
  stop : Svt_engine.Time.t;
  label : string;
  cost : meter; (* exclusive cost *)
  inner : closed list; (* the closed spans it encloses *)
}

(* Add one span, and everything it encloses, to the aggregate tree. *)
let rec fold parent (c : closed) =
  let n = child parent c.label in
  n.calls <- n.calls + 1;
  n.excl.secs <- n.excl.secs +. c.cost.secs;
  n.excl.alloc <- n.excl.alloc +. c.cost.alloc;
  List.iter (fold n) c.inner

(* A vCPU's closed spans that no span has enclosed yet, newest first. *)
type stack = { mutable waiting : closed list; mutable depth : int }

type t = {
  clock : unit -> float; (* host seconds *)
  words : unit -> float; (* allocated words so far (monotonic) *)
  root : node;
  engine_setup : meter; (* from [start] to the first event *)
  engine_queue : meter; (* between-event engine bookkeeping *)
  engine_dispatch : meter; (* in-event work after the last span close *)
  engine_other : meter; (* outside the event loop (setup, metric assembly) *)
  engine_profiler : meter; (* the sink's own bookkeeping *)
  pending : (int, stack) Hashtbl.t; (* per vcpu *)
  mutable running : bool;
  seg : meter; (* clock and words counter at the current segment's start *)
  mutable t_start : float;
  mutable t_stop : float;
  mutable words_at_start : float;
  mutable alloc_words : float; (* allocated_words delta, set at stop *)
  mutable spans : int;
  mutable events : int;
}

(* Closed spans kept waiting for a parent, per vCPU. Episodes are a
   handful of legs deep; anything older is an episode root. Roots are
   folded in batches once twice the cap wait, not one per span. *)
let max_pending = 64

let default_clock = Unix.gettimeofday
let default_words () = Gc.minor_words ()

let create ?(clock = default_clock) ?(words = default_words) () =
  let root = new_node () in
  let engine = child root "engine" in
  {
    clock; words; root;
    engine_setup = (child engine "setup").excl;
    engine_queue = (child engine "queue").excl;
    engine_dispatch = (child engine "dispatch").excl;
    engine_other = (child engine "other").excl;
    engine_profiler = (child engine "profiler").excl;
    pending = Hashtbl.create 8;
    running = false;
    seg = { secs = 0.0; alloc = 0.0 };
    t_start = 0.0; t_stop = 0.0;
    words_at_start = 0.0; alloc_words = 0.0;
    spans = 0; events = 0;
  }

(* Close the current host-time segment, charging it exclusively to
   [m]. One clock read ends this segment and starts the next, so the
   charges telescope: their sum is exactly (last read - t_start). *)
let segment t (m : meter) =
  let now = t.clock () in
  let w = t.words () in
  m.secs <- m.secs +. (now -. t.seg.secs);
  m.alloc <- m.alloc +. (w -. t.seg.alloc);
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

(* Fold all but the newest [keep] of [vcpu]'s closed spans, oldest
   first, under the vCPU's root. *)
let fold_roots t vcpu st ~keep =
  let rec split i = function
    | c :: rest when i < keep -> c :: split (i + 1) rest
    | [] -> []
    | roots ->
        List.iter (fold (child t.root (vcpu_label vcpu))) (List.rev roots);
        []
  in
  st.waiting <- split 0 st.waiting;
  st.depth <- min keep st.depth

(* Pop the run of closed spans [sp] (virtually) encloses off [st]: spans
   close children first, so they are the newest ones. *)
let rec adopt st (sp : Span.t) inner =
  match st.waiting with
  | c :: rest when sp.Span.start <= c.start && c.stop <= sp.Span.stop ->
      st.waiting <- rest;
      st.depth <- st.depth - 1;
      adopt st sp (c :: inner)
  | _ -> inner

let sink t (sp : Span.t) =
  if t.running then begin
    let cost = { secs = 0.0; alloc = 0.0 } in
    segment t cost;
    t.spans <- t.spans + 1;
    let st =
      match Hashtbl.find t.pending sp.Span.vcpu with
      | st -> st
      | exception Not_found ->
          let st = { waiting = []; depth = 0 } in
          Hashtbl.add t.pending sp.Span.vcpu st;
          st
    in
    let inner = adopt st sp [] in
    st.waiting <-
      { start = sp.Span.start; stop = sp.Span.stop; label = label_of_span sp;
        cost; inner }
      :: st.waiting;
    st.depth <- st.depth + 1;
    if st.depth >= 2 * max_pending then
      fold_roots t sp.Span.vcpu st ~keep:max_pending;
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
    Hashtbl.iter (fun vcpu st -> fold_roots t vcpu st ~keep:0) t.pending
  end

(* ---- summary accessors ---- *)

let wall_s t =
  (if t.running then t.clock () else t.t_stop) -. t.t_start

let rec excl_total_s (n : node) =
  List.fold_left
    (fun acc (_, kid) -> acc +. excl_total_s kid) n.excl.secs n.kids

let exclusive_total_s t = excl_total_s t.root
let spans t = t.spans
let events t = t.events
let word_bytes = Sys.word_size / 8
let allocated_bytes t = t.alloc_words *. float_of_int word_bytes

(* ---- folded stacks ---- *)

let by_label n = List.sort (fun (a, _) (b, _) -> String.compare a b) n.kids

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
    List.iter (fun (label, kid) -> walk (label :: path) kid) (by_label n)
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
    List.iter (fun (label, kid) -> walk (label :: path) kid) n.kids
  in
  walk [] t.root;
  (* ties broken by path, so the order does not depend on the tree's *)
  List.sort (fun a b -> compare (b.excl_ns, a.path) (a.excl_ns, b.path)) !acc

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
    let kids = by_label n in
    if kids <> [] then begin
      Buffer.add_string b ",\"children\":[";
      List.iteri
        (fun i (l, kid) -> if i > 0 then Buffer.add_char b ','; node_json l kid)
        kids;
      Buffer.add_char b ']'
    end;
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
