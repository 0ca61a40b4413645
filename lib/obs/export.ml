(* Sink 3, the ledger bridge: flatten per-span-kind timeline summaries
   into flat (name, value) metric fields, the shape Campaign.Ledger
   stores and sweep-diff compares. Field names are stable:
   obs.<kind>.count / .mean_ns / .p99_ns / .total_ns. Also home to the
   JSON string escaper every writer (trace, profile, ledger) shares. *)

(* JSON string escaping per RFC 8259 (other control chars as \u00XX). *)
let buf_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let field_name kind stat = Printf.sprintf "obs.%s.%s" (Span.kind_name kind) stat

let fields_of_summary (s : Timeline.summary) =
  [
    (field_name s.Timeline.kind "count", float_of_int s.Timeline.count);
    (field_name s.Timeline.kind "mean_ns", s.Timeline.mean_ns);
    (field_name s.Timeline.kind "p99_ns", float_of_int s.Timeline.p99_ns);
    (field_name s.Timeline.kind "total_ns", float_of_int s.Timeline.total_ns);
  ]

(* Only kinds that recorded at least one span: ledgers stay compact and
   sweep-diff reports a field appearing/vanishing as a real change. *)
let fields timeline =
  List.concat_map fields_of_summary (Timeline.summaries timeline)
