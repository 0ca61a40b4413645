(* Cancellable priority queue of timed events, ordered by (time, sequence
   number) so that events scheduled for the same instant run in FIFO order.

   Events live in a pool of slots held as parallel arrays: slot [s] has
   time [times.(s)], sequence number [seqs.(s)] and payload
   [payloads.(s)]. One int array orders them: its first [size] cells are
   a binary min-heap of the slot ids in use, and the rest hold the free
   slot ids, so a popped slot moves from the heap's end straight into the
   free region and the next [add] takes it back. Queueing an event thus
   allocates nothing but its payload.

   Cancellation is lazy: the slot's payload becomes [vacant] and the
   entry stays in the heap, keeping its place, until it surfaces at the
   head and is dropped. That keeps cancel O(1). A handle packs the slot
   and the event's sequence number; sequence numbers are never reused,
   so a handle to an event that already fired or was cancelled, whether
   or not its slot has since been reused, matches no live event. *)

type payload =
  | Call of (unit -> unit)
  | Wake of (unit, unit) Effect.Deep.continuation

type handle = int

(* A handle is [seq lsl slot_bits lor slot]. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* The payload of every slot that holds no live event (free, fired or
   cancelled). Compared physically, so no caller's payload is ever
   mistaken for it. *)
let vacant = Call (fun () -> ())

type slots = {
  mutable heap : int array; (* [0, size): min-heap of slot ids; the rest free *)
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable payloads : payload array;
  mutable size : int; (* slots in the heap, live or cancelled *)
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

(* [time] sits outside [slots] because the interface exports it: the
   event loop reads each popped event's time as a field, not through a
   second call. *)
type t = { mutable time : Time.t; slots : slots }

(* Lifetime op counts and high-water mark of a queue. *)
type stats = { adds : int; pops : int; cancels : int; peak_live : int }

let initial_slots = 16

let create () =
  { time = Time.zero;
    slots =
      { heap = Array.init initial_slots Fun.id;
        times = Array.make initial_slots 0;
        seqs = Array.make initial_slots (-1);
        payloads = Array.make initial_slots vacant;
        size = 0; next_seq = 0; live = 0;
        adds = 0; pops = 0; cancels = 0; peak_live = 0 } }

let stats q =
  let q = q.slots in
  { adds = q.adds; pops = q.pops; cancels = q.cancels; peak_live = q.peak_live }

(* Called only when every slot is in the heap, so the new slots are the
   whole free region. *)
let grow q =
  let cap = Array.length q.heap in
  if 2 * cap > slot_mask + 1 then
    invalid_arg "Event_queue: too many pending events";
  let widen a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.heap <- Array.init (2 * cap) (fun i -> if i < cap then q.heap.(i) else i);
  q.times <- widen q.times 0;
  q.seqs <- widen q.seqs (-1);
  q.payloads <- widen q.payloads vacant

(* Both sifts carry one slot id up (or down) a hole and write it once, at
   the end. They are loops, not local recursive functions, because a
   closure over the arrays would be allocated on every call. *)
let sift_up q i =
  let heap = q.heap and times = q.times and seqs = q.seqs in
  let s = heap.(i) in
  let time = times.(s) and seq = seqs.(s) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = heap.(parent) in
    let tp = times.(p) in
    if time < tp || (time = tp && seq < seqs.(p)) then begin
      heap.(!i) <- p;
      i := parent
    end
    else moving := false
  done;
  heap.(!i) <- s

let sift_down q i =
  let heap = q.heap and times = q.times and seqs = q.seqs and n = q.size in
  let s = heap.(i) in
  let time = times.(s) and seq = seqs.(s) in
  let i = ref i and moving = ref true in
  while !moving && (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let c =
      let r = l + 1 in
      if r < n then
        let sl = heap.(l) and sr = heap.(r) in
        let tl = times.(sl) and tr = times.(sr) in
        if tr < tl || (tr = tl && seqs.(sr) < seqs.(sl)) then r else l
      else l
    in
    let sc = heap.(c) in
    let tc = times.(sc) in
    if tc < time || (tc = time && seqs.(sc) < seq) then begin
      heap.(!i) <- sc;
      i := c
    end
    else moving := false
  done;
  heap.(!i) <- s

let add q ~time payload =
  let q = q.slots in
  if q.size = Array.length q.heap then grow q;
  let s = q.heap.(q.size) in
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.times.(s) <- time;
  q.seqs.(s) <- seq;
  q.payloads.(s) <- payload;
  q.size <- q.size + 1;
  q.live <- q.live + 1;
  q.adds <- q.adds + 1;
  if q.live > q.peak_live then q.peak_live <- q.live;
  sift_up q (q.size - 1);
  (seq lsl slot_bits) lor s

let cancel q h =
  let q = q.slots in
  let s = h land slot_mask in
  if q.seqs.(s) = h lsr slot_bits && q.payloads.(s) != vacant then begin
    q.payloads.(s) <- vacant;
    q.live <- q.live - 1;
    q.cancels <- q.cancels + 1
  end

(* Drop the head: the last heap entry fills the root and the head's slot
   takes the cell the heap just gave up, the first of the free region. *)
let remove_head q =
  let heap = q.heap in
  let head = heap.(0) in
  let n = q.size - 1 in
  q.size <- n;
  heap.(0) <- heap.(n);
  heap.(n) <- head;
  if n > 0 then sift_down q 0

(* Discard cancelled entries at the head, so that the head, if any, is
   live. Inlined into [pop] and [head_time], which every event calls. *)
let[@inline] drop_cancelled q =
  while q.size > 0 && q.payloads.(q.heap.(0)) == vacant do
    remove_head q
  done

let none = vacant

(* A popped slot is left [vacant], so a later [cancel] on its handle — a
   watchdog calling [cancel] on a deadline that already fired — is a
   no-op instead of corrupting the live count. *)
let pop q ~until =
  let s = q.slots in
  drop_cancelled s;
  if s.size = 0 then none
  else begin
    let slot = s.heap.(0) in
    let time = s.times.(slot) in
    if time > until then none
    else begin
      let payload = s.payloads.(slot) in
      s.payloads.(slot) <- vacant;
      remove_head s;
      s.live <- s.live - 1;
      s.pops <- s.pops + 1;
      q.time <- time;
      payload
    end
  end

let head_time q =
  let q = q.slots in
  drop_cancelled q;
  if q.size = 0 then max_int else q.times.(q.heap.(0))

let length q = q.slots.live
