(* The emitter side of the observability layer. A probe decouples the
   instrumented hot paths from whatever sinks are (or are not) installed:
   emitters ask [is_on] — a single list test — and skip all span
   construction when nobody listens, so the default (null-sink) state
   costs one branch per site and never perturbs the simulation. *)

module Time = Svt_engine.Time

type t = { clock : unit -> Time.t; mutable subs : (Span.t -> unit) list }

let create ~clock () = { clock; subs = [] }
let is_on t = t.subs <> []
let now t = t.clock ()
let subscribe t sink = t.subs <- t.subs @ [ sink ]

let emit t span = if is_on t then List.iter (fun sink -> sink span) t.subs

(* Emit a span ending now. No-op (and no allocation beyond the already
   evaluated arguments) when the probe is off. [core]/[ctx] pin the span
   to a hardware lane; the -1 default keeps it on the per-vCPU track. *)
let span t kind ~vcpu ~level ?(core = -1) ?(ctx = -1) ?(tags = []) ~start () =
  if is_on t then
    emit t { Span.kind; vcpu; level; core; ctx; start; stop = t.clock (); tags }

(* Run [f] inside a span of [kind]; tags are computed only on emission so
   the off path pays nothing but the branch. Exception-safe: a raising
   thunk still emits its span — tagged ["error"] — before the exception
   continues, so faulted and fuzzed paths appear in traces and profiles
   instead of silently vanishing. *)
let wrap t kind ~vcpu ~level ?(core = -1) ?(ctx = -1) ?(tags = fun () -> []) f =
  if not (is_on t) then f ()
  else begin
    let start = t.clock () in
    match f () with
    | result ->
        emit t
          { Span.kind; vcpu; level; core; ctx; start; stop = t.clock ();
            tags = tags () };
        result
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        emit t
          { Span.kind; vcpu; level; core; ctx; start; stop = t.clock ();
            tags = ("error", Printexc.to_string e) :: tags () };
        Printexc.raise_with_backtrace e bt
  end
