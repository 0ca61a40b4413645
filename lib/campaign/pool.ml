(* Work-stealing-lite: one shared atomic next-index counter and N worker
   domains. The matrix points are independent simulations, so the only
   shared state is the counter, the results array (disjoint slots), the
   stop flag, and the progress callback (serialized by a mutex).

   Nothing escapes a worker body, so [List.iter Domain.join] never
   re-raises and never abandons un-joined domains mid-iteration. *)

type 'b outcome = {
  result : ('b, exn) result;
  backtrace : string option;
  wall_s : float;
}

type 'b run = {
  outcomes : 'b outcome option array;
  completed : int;
  stopped_early : bool;
}

let default_jobs () = min 8 (Domain.recommended_domain_count ())

let failure e =
  let bt = Printexc.get_backtrace () in
  (Error e, if bt = "" then None else Some bt)

let map ?jobs ?stop_after ?on_result f tasks =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let results = Array.make n None in
  let report = Mutex.create () in
  let completed = ref 0 in
  let stop = Atomic.make false in
  (match stop_after with Some limit when limit <= 0 -> Atomic.set stop true | _ -> ());
  let finished i outcome =
    results.(i) <- Some outcome;
    Mutex.protect report (fun () ->
        incr completed;
        (match stop_after with
        | Some limit when !completed >= limit -> Atomic.set stop true
        | _ -> ());
        match on_result with None -> () | Some cb -> cb ~index:i outcome)
  in
  let run_one i =
    let t0 = Unix.gettimeofday () in
    let result, backtrace =
      try (Ok (f tasks.(i)), None) with e -> failure e
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (* An exception escaping [finished] (a hostile on_result callback) is
       captured into the slot rather than killing the domain with slots
       unclaimed. *)
    try finished i { result; backtrace; wall_s }
    with e ->
      let result, backtrace = failure e in
      results.(i) <- Some { result; backtrace; wall_s = 0.0 }
  in
  (* Backtrace recording is per domain: set it in every domain that runs
     tasks, so a failure's recorded trace does not depend on [jobs]. *)
  Printexc.record_backtrace true;
  let next = Atomic.make 0 in
  let rec worker () =
    if not (Atomic.get stop) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        worker ()
      end
    end
  in
  if jobs = 1 || n <= 1 then worker ()
  else
    List.init (min jobs n) (fun _ ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace true;
            worker ()))
    |> List.iter Domain.join;
  {
    outcomes = results;
    completed = !completed;
    (* A stop that fired on the very last task is not "early". *)
    stopped_early = Atomic.get stop && !completed < n;
  }
