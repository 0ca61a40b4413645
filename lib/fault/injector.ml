(* The injector owns all fault randomness. Each kind draws from its own
   PRNG stream so one site's draws never perturb another's: adding
   drop-ring to a plan leaves the corrupt-vmcs12 decision sequence
   untouched, which keeps sweep axes comparable run to run.

   An injector built from the empty plan is inert: [roll] is a single
   load-and-branch, no streams are consulted, no outcomes recorded, so
   instrumented call sites cost nothing in clean runs. *)

module Prng = Svt_engine.Prng

type t = {
  active : bool;
  rates : float array; (* by Kind.index *)
  streams : Prng.t array; (* by Kind.index; only built when active *)
  counts : int array; (* by Outcome.index *)
  mutable observer : (Outcome.t -> unit) option;
}

let create ?(seed = 0L) plan =
  let active = not (Plan.is_empty plan) in
  let rates = Array.make Kind.n 0.0 in
  List.iter
    (fun (k, r) -> rates.(Kind.index k) <- r)
    (Plan.entries plan);
  (* Keyed splitting by kind index: stream k is a pure function of
     (seed, k), so sibling streams stay independent — the old additive
     salt made seeds differing by the salt delta alias across kinds. *)
  let streams =
    if active then
      Array.init Kind.n (fun i -> Prng.of_split seed ~index:i)
    else [||]
  in
  { active; rates; streams; counts = Array.make Outcome.n 0;
    observer = None }

let none () = create Plan.empty
let is_active t = t.active
let set_observer t f = t.observer <- Some f

let record t outcome =
  t.counts.(Outcome.index outcome) <- t.counts.(Outcome.index outcome) + 1;
  match t.observer with None -> () | Some f -> f outcome

let roll t kind =
  t.active
  &&
  let i = Kind.index kind in
  t.rates.(i) > 0.0
  && Prng.bernoulli t.streams.(i) t.rates.(i)
  &&
  (record t (Outcome.Injected kind);
   true)

let pick t kind n = Prng.int t.streams.(Kind.index kind) n
let count t outcome = t.counts.(Outcome.index outcome)

let counts t =
  List.filter_map
    (fun o ->
      let c = count t o in
      if c > 0 then Some (Outcome.name o, c) else None)
    Outcome.all

let fields t =
  List.map (fun (name, c) -> ("fault." ^ name, float_of_int c)) (counts t)
