(** Append-only JSONL run ledger: one self-describing object per run.

    Schema (one line per run):
    {v
    {"run_id":"59ac...","mode":"hw-svt","level":"l2","workload":"cpuid",
     "vcpus":1,"seed":0,"status":"ok","attempts":1,"wall_s":0.041,
     "metrics":{"per_op_us":5.37,"samples":64.0,...}}
    v}

    ["attempts"] is always [1]: every run is attempted exactly once,
    and the constant is kept so rows stay byte-identical to ledgers
    written when failed runs were retried. The reader ignores it, so
    such older ledgers (with [2], or a ["quarantined"] status) still
    load; resume re-runs every row that is not [ok].

    A ["fault"] string field (the point's canonical fault-plan) appears
    after ["seed"] only when the point has one, so fault-free ledgers
    stay byte-identical to the pre-fault-axis format.

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

val entry_of_result : Runner.result -> entry

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

(** {2 Line checksums}

    A journaled row carries a CRC32 of its own canonical bytes as a
    final ["crc"] field ([{...,"crc":"9a3f04d1"}]), so {!recover} can
    tell an intact row from a torn or bit-flipped one. Lines without
    the field are accepted unchecked (legacy ledgers). *)

val line_of_entry_crc : entry -> string
(** The entry's canonical JSON line with the checksum field appended. *)

val strip_crc : string -> (string, string) result
(** Verify and remove a trailing ["crc"] field: [Ok plain] (the bytes
    the checksum covered, or the unchanged line if it carried no
    checksum), or [Error] on mismatch. *)

(** {2 Writing} *)

val write : string -> entry list -> unit
(** Append [entries] to the file at [path], one line each. *)

(** {2 Reading} *)

val load : string -> (entry list, string) result
(** The strict form of {!recover}: [Ok] with every row when the whole
    file is intact, otherwise [Error] naming the first damaged line
    ([path:line: ...]) — a line that does not parse, is not a ledger
    entry, or fails its CRC. Rows without a CRC load unchecked. *)

(** What {!recover} salvaged from a (possibly torn) journal. *)
type recovery = {
  entries : entry list;  (** the intact prefix rows, in file order *)
  salvaged : int;  (** [List.length entries] *)
  dropped_lines : int;  (** lines at or after the first damaged one *)
  dropped_bytes : int;  (** bytes from the first damaged line to EOF *)
  error : string option;  (** what stopped the scan; [None] if clean *)
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
