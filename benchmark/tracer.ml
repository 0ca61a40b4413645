(* Bench-side spans: host-time intervals recorded around the
   benchmark's own calls into each library (the libraries themselves
   are not instrumented). Spans are kept in memory while a traced rep
   runs and written once, as a Chrome trace, when the workload ends. A
   span's self time is its duration minus the time its child spans
   cover. *)

type span = {
  id : int;
  parent : int;  (** -1 at the top level *)
  rep : int;  (** the rep the span belongs to; its trace thread *)
  name : string;
  start : float;  (** host seconds *)
  stop : float;
}

let recording = ref false
let current_rep = ref 0
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

(* Record spans from here on, charged to rep [rep]. *)
let start ~rep =
  recording := true;
  current_rep := rep

let stop () = recording := false

let with_span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let rep = !current_rep in
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_ids := List.tl !open_ids;
        recorded := { id; parent; rep; name; start; stop } :: !recorded)
      f
  end

let duration s = s.stop -. s.start

let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !recorded;
  fun s -> duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)

let write_chrome path =
  let all = List.rev !recorded in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let self = self_times () in
  let us x = Printf.sprintf "%.3f" (x *. 1e6) in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\
           \"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%s}}"
          (Json.str s.name) s.rep (us (s.start -. t0)) (us (duration s)) s.id
          s.parent (us (self s)))
      all
  in
  Json.write_file path
    ("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    ^ String.concat ",\n" events
    ^ "\n]}\n")
