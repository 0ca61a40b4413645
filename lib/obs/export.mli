(** Sink 3, the ledger bridge: flatten a {!Timeline}'s per-span-kind
    summaries into flat [(name, value)] metric fields, the shape the
    campaign ledger stores and [sweep-diff] compares across runs, plus
    the JSON string escaper that every JSON writer shares. *)

val buf_json_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal (RFC 8259 escaping; control
    characters without a short escape become [\u00XX]). The one
    escaper behind every JSON writer: the Chrome trace, the profile and
    the campaign ledger. *)

val fields : Timeline.t -> (string * float) list
(** count / mean_ns / p99_ns / total_ns per non-empty span kind, in
    kind order. *)
