(* Sink 1: per-span-kind latency histograms and time totals over every
   span, queryable at end of run. A kind's histogram (2,080 counts) is
   made on its first span, so a kind a run never emits costs nothing. *)

module Time = Svt_engine.Time
module Histogram = Svt_stats.Histogram

type summary = {
  kind : Span.kind;
  count : int;
  mean_ns : float;
  p99_ns : int;
  total_ns : int;
}

type t = {
  hists : Histogram.t option array; (* per span kind, from its first span *)
  totals : int array; (* accumulated ns per span kind *)
  mutable total_spans : int;
}

let create () =
  {
    hists = Array.make Span.n_kinds None;
    totals = Array.make Span.n_kinds 0;
    total_spans = 0;
  }

(* The subscriber function to install on a probe. *)
let sink t (s : Span.t) =
  let k = Span.kind_index s.Span.kind in
  let ns = Span.duration_ns s in
  let h =
    match t.hists.(k) with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        t.hists.(k) <- Some h;
        h
  in
  Histogram.add h (max 0 ns);
  t.totals.(k) <- t.totals.(k) + ns;
  t.total_spans <- t.total_spans + 1

let total_spans t = t.total_spans

let count t kind =
  match t.hists.(Span.kind_index kind) with
  | Some h -> Histogram.count h
  | None -> 0

let summary t kind h =
  {
    kind;
    count = Histogram.count h;
    mean_ns = Histogram.mean h;
    p99_ns = Histogram.p99 h;
    total_ns = t.totals.(Span.kind_index kind);
  }

(* Non-empty kinds only, in kind order. *)
let summaries t =
  List.filter_map
    (fun k -> Option.map (summary t k) t.hists.(Span.kind_index k))
    Span.all_kinds

let pp_summary ppf s =
  Fmt.pf ppf "%-15s %8d spans  mean %a  p99 %a  total %a"
    (Span.kind_name s.kind) s.count Time.pp
    (Time.of_ns (int_of_float s.mean_ns))
    Time.pp (Time.of_ns s.p99_ns) Time.pp (Time.of_ns s.total_ns)

let pp ppf t =
  List.iter (fun s -> Fmt.pf ppf "%a@." pp_summary s) (summaries t)
