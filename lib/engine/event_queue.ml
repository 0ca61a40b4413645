(* Cancellable priority queue of timed events, ordered by (time, sequence
   number) so that events scheduled for the same instant run in FIFO order.
   Implemented as an array-based binary min-heap; cancellation is lazy (the
   entry is marked and skipped when popped), which keeps cancel O(1). *)

type entry = {
  time : Time.t;
  seq : int;
  run : unit -> unit;
  mutable cancelled : bool;
}

type handle = entry

type t = {
  mutable heap : entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int; (* entries not cancelled *)
  (* Op counters for the engine-level profiler probe points. Plain ints
     driven only by the (deterministic) event stream, so they are free
     to read at any point and identical across hosts and worker
     interleavings. *)
  mutable adds : int;
  mutable pops : int;
  mutable cancels : int;
  mutable peak_live : int;
}

(* Lifetime op counts and high-water mark of a queue. *)
type stats = { adds : int; pops : int; cancels : int; peak_live : int }

let dummy_entry = { time = 0; seq = -1; run = ignore; cancelled = true }

let create () =
  { heap = Array.make 64 dummy_entry; size = 0; next_seq = 0; live = 0;
    adds = 0; pops = 0; cancels = 0; peak_live = 0 }

let stats (q : t) =
  { adds = q.adds; pops = q.pops; cancels = q.cancels; peak_live = q.peak_live }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q =
  let bigger = Array.make (2 * Array.length q.heap) dummy_entry in
  Array.blit q.heap 0 bigger 0 q.size;
  q.heap <- bigger

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && before q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.size && before q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- tmp;
    sift_down q !smallest
  end

let add q ~time run =
  if q.size = Array.length q.heap then grow q;
  let e = { time; seq = q.next_seq; run; cancelled = false } in
  q.next_seq <- q.next_seq + 1;
  q.heap.(q.size) <- e;
  q.size <- q.size + 1;
  q.live <- q.live + 1;
  q.adds <- q.adds + 1;
  if q.live > q.peak_live then q.peak_live <- q.live;
  sift_up q (q.size - 1);
  e

let cancel q e =
  if not e.cancelled then begin
    e.cancelled <- true;
    q.live <- q.live - 1;
    q.cancels <- q.cancels + 1
  end

let remove_head q =
  q.size <- q.size - 1;
  q.heap.(0) <- q.heap.(q.size);
  q.heap.(q.size) <- dummy_entry;
  if q.size > 0 then sift_down q 0

(* The earliest live entry, discarding cancelled ones at the head. *)
let rec live_head q =
  if q.size = 0 then invalid_arg "Event_queue: empty queue";
  let e = q.heap.(0) in
  if e.cancelled then begin
    remove_head q;
    live_head q
  end
  else e

let next_time q = (live_head q).time

(* A taken entry is marked cancelled so that a later [cancel] on its
   handle — a watchdog calling [cancel] on a deadline that already
   fired — is a no-op instead of corrupting the live count. *)
let take q =
  let e = live_head q in
  remove_head q;
  e.cancelled <- true;
  q.live <- q.live - 1;
  q.pops <- q.pops + 1;
  e.run

let is_empty q = q.live = 0
let length q = q.live
