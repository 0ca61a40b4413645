(** Crash-consistent JSONL ledger writer.

    Every appended row carries a CRC32 of its canonical bytes
    ({!Ledger.line_of_entry_crc}) and is flushed as soon as it is
    written. A campaign killed mid-sweep therefore leaves a journal
    whose longest intact prefix {!Ledger.recover} can salvage, and
    [sweep --resume] restarts from. *)

type t

val create : ?truncate:bool -> string -> t
(** Open [path] for appending (created if missing; [truncate] starts a
    fresh journal instead). *)

val append : t -> Ledger.entry -> unit
(** Append one CRC'd row and flush it. *)

val close : t -> unit

val rewrite : string -> Ledger.entry list -> unit
(** Atomically replace [path] with exactly [entries] (CRC'd, one per
    line) via a temp file and rename: the clean-completion path that
    turns a completion-ordered journal into the canonical spec-ordered
    ledger. A crash mid-rewrite leaves the old journal intact. *)
