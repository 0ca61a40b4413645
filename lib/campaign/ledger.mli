(** Append-only JSONL run ledger: one self-describing object per run.

    Schema (one line per run):
    {v
    {"run_id":"59ac...","mode":"hw-svt","level":"l2","workload":"cpuid",
     "vcpus":1,"seed":0,"status":"ok","attempts":1,"wall_s":0.041,
     "metrics":{"per_op_us":5.37,"samples":64.0,...}}
    v}

    The row's field order and the elision of the optional fields below
    are a pinned byte format (test_campaign "identity pinned").

    ["attempts"] is always [1]: every run is attempted exactly once,
    and the constant is kept so rows stay byte-identical to ledgers
    written when failed runs were retried. The reader ignores it, so
    such older ledgers (with [2], or a ["quarantined"] status) still
    load; resume re-runs every row that is not [ok].

    The ["fault"], ["policy"] and ["arch"] fields appear (after
    ["hosts"]) only away from their {!Spec.default}, so ledgers of
    points that do not use those axes stay byte-identical to the
    formats that predate them; the reader fills a missing field with
    its default.

    Non-finite metric values are encoded as [null] (JSON has no nan) and
    read back as [nan]. The reader accepts any JSONL produced by the
    writer plus insignificant whitespace; unknown extra keys are
    ignored, so the schema can grow. *)

type entry = {
  run_id : string;
  point : Spec.point;
  status : string;  (** "ok" | "failed" | "timeout" (free-form on read) *)
  error : string option;
      (** failure detail when status = "failed": the exception and its
          backtrace *)
  wall_s : float;
  metrics : (string * float) list;
  data : (string * string) list;
      (** string payload rows, serialized as a trailing ["data"] object
          only when non-empty (so plain campaign ledgers keep their
          historical byte format). The fuzz corpus stores serialized
          inputs and coverage maps here. *)
}

(** {2 JSON}

    The ledger's own minimal JSON representation and parser, exposed so
    other tooling (trace-export validation, tests) can parse JSON it
    produced — or any RFC 8259 value on a single line — without an
    external dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val parse_json : string -> json
(** Parse one JSON value from a string; raises {!Parse_error}. *)

(** {2 Writing}

    A journaled row carries a CRC32 of its own canonical bytes as a
    final ["crc"] field ([{...,"crc":"9a3f04d1"}]), so {!recover} can
    tell an intact row from a torn or bit-flipped one. Lines without
    the field are accepted unchecked (legacy ledgers). *)

val line : crc:bool -> entry -> string
(** The entry's canonical JSON line, with the checksum field appended
    when [crc]. *)

type writer
(** An open ledger file: the one append path, for a campaign's or the
    fuzzer's journal (with [crc]) and for [svt_sim run --out] (plain). *)

val writer : crc:bool -> string -> writer
(** Open [path] for appending (created if missing). *)

val append : writer -> entry -> unit
(** Append the entry's {!line} and flush it: a crash after the call
    keeps the row, and one during it leaves at worst a torn last line,
    which {!recover} drops. *)

val close : writer -> unit

val rewrite : string -> entry list -> unit
(** Atomically replace [path] with exactly [entries] (CRC'd, one per
    line) via a temp file and rename: the clean-completion path that
    turns a completion-ordered journal into the canonical spec-ordered
    ledger, and the start of a fresh one ([rewrite path []]). A crash
    mid-rewrite leaves the old file intact. *)

(** {2 Reading} *)

val load : string -> (entry list, string) result
(** The strict form of {!recover}: [Ok] with every row when the whole
    file is intact, otherwise [Error] naming the first damaged line
    ([path:line: ...]) — a line that does not parse, is not a ledger
    entry, or fails its CRC. Rows without a CRC load unchecked. *)

(** What {!recover} salvaged from a (possibly torn) journal. *)
type recovery = {
  entries : entry list;  (** the intact prefix rows, in file order *)
  error : string option;
      (** the first damaged line ([path:line: ...]), where the scan
          stopped; [None] if the whole file is intact *)
}

val entry_of_line : string -> (entry, string) result
(** CRC-check (when present) and parse one journal line. *)

val recover : string -> recovery
(** Salvage the longest intact prefix of a journal: rows are read until
    the first line that fails its CRC, does not parse, or is not a
    ledger entry — the expected artifact of a crash mid-append. Never
    raises on file contents (only on I/O errors such as a missing
    file). *)

val find : entry list -> run_id:string -> entry option

val metric : entry -> string -> float
(** [nan] when absent. *)

val diff :
  entry list ->
  entry list ->
  (string * (string * float * float) list) list
(** [diff old new]: for every run_id present in both ledgers, the
    metrics whose values differ (name, old, new); run_ids with no
    differing metric are omitted. Ordered as in [new]. *)
