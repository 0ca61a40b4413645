(* Supervised work-stealing-lite: one shared atomic next-index counter
   and N worker domains. The matrix points are independent simulations,
   so the only shared state is the counter, the results array (disjoint
   slots), the stop flag, and the progress callback (serialized by a
   mutex).

   Supervision invariants:
   - nothing escapes a worker body, so [Array.iter Domain.join] never
     re-raises and never abandons un-joined domains mid-iteration;
   - a worker that does die (the outer handler) marks its stats record
     and leaves its current slot filled with the captured failure, so the
     remaining workers finish the matrix and the campaign reports the
     crash instead of losing every completed row;
   - each worker stamps a heartbeat (host time + task index) when it
     claims and when it finishes a task, which the summary exposes. *)

type 'b outcome = {
  result : ('b, exn) result;
  quarantined : bool;
  backtrace : string option;
  attempts : int;
  wall_s : float;
}

type worker_stats = {
  id : int;
  mutable tasks_run : int;
  mutable last_beat : float;
  mutable current : int;
  mutable crash : string option;
}

type 'b run = {
  outcomes : 'b outcome option array;
  completed : int;
  stopped_early : bool;
  workers : worker_stats list;
}

let default_jobs () = min 8 (Domain.recommended_domain_count ())
let default_quarantine_after = 3

(* Run one task with bounded retry. [fatal] exceptions (a deterministic
   fuel exhaustion) are never retried. [quarantine_after] consecutive
   failures quarantine the task: retries stop even if some remain,
   because a task that deterministic-crashes K times in a row is not
   flaky, and the captured backtrace goes to the ledger. *)
let run_task ~retries ~quarantine_after ~fatal f task =
  let rec go attempt =
    let t0 = Unix.gettimeofday () in
    let result = try Ok (f task) with e -> Error e in
    let wall_s = Unix.gettimeofday () -. t0 in
    let finish ?backtrace quarantined =
      { result; quarantined; backtrace; attempts = attempt; wall_s }
    in
    match result with
    | Ok _ -> finish false
    | Error e ->
        let bt = Printexc.get_backtrace () in
        let backtrace = if bt = "" then None else Some bt in
        if fatal e then finish ?backtrace false
        else if attempt >= quarantine_after then finish ?backtrace true
        else if attempt <= retries then go (attempt + 1)
        else finish ?backtrace false
  in
  go 1

let map ?jobs ?(retries = 1)
    ?(quarantine_after = default_quarantine_after) ?stop_after
    ?(fatal = fun _ -> false) ?on_result f tasks =
  if quarantine_after < 1 then invalid_arg "Pool.map: quarantine_after < 1";
  Printexc.record_backtrace true;
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
  let workers =
    List.init (if jobs = 1 || n <= 1 then 1 else min jobs n) (fun id ->
        { id; tasks_run = 0; last_beat = Unix.gettimeofday (); current = -1;
          crash = None })
  in
  let beat w i =
    w.last_beat <- Unix.gettimeofday ();
    w.current <- i
  in
  let run_one w i =
    beat w i;
    (* An exception escaping [finished] (a hostile on_result callback) is
       captured into the slot rather than killing the domain with slots
       unclaimed. *)
    (try finished i (run_task ~retries ~quarantine_after ~fatal f tasks.(i))
     with e ->
       let bt = Printexc.get_backtrace () in
       results.(i) <-
         Some
           { result = Error e; quarantined = false;
             backtrace = (if bt = "" then None else Some bt);
             attempts = 1; wall_s = 0.0 });
    w.tasks_run <- w.tasks_run + 1;
    beat w (-1)
  in
  (match workers with
  | [ w ] when jobs = 1 || n <= 1 ->
      let i = ref 0 in
      while !i < n && not (Atomic.get stop) do
        run_one w !i;
        incr i
      done
  | _ ->
      let next = Atomic.make 0 in
      let worker w () =
        let rec loop () =
          if not (Atomic.get stop) then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              run_one w i;
              loop ()
            end
          end
        in
        (* Belt and braces: [run_one] should be total, but if the domain
           is dying anyway (Stack_overflow, Out_of_memory) record the
           crash so the supervisor can report which worker was lost. *)
        try loop ()
        with e -> w.crash <- Some (Printexc.to_string e)
      in
      let domains =
        List.map (fun w -> Domain.spawn (worker w)) workers
      in
      List.iter Domain.join domains);
  {
    outcomes = results;
    completed = !completed;
    (* A stop that fired on the very last task is not "early". *)
    stopped_early = Atomic.get stop && !completed < n;
    workers;
  }
