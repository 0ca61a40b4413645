(** Coverage sink: a fixed-size bitmap over protocol features.

    Every span a {!Probe} emits is hashed — span kind × discriminating
    tags (exit reason, run mode, world-switch leg, transform direction,
    ring command, fault outcome) — into one of {!size} slots. A set bit
    means that handler path ran. Because keys are hashed into a fixed
    map rather than interned, maps built in different worker domains (or
    different runs) are directly comparable and mergeable, which is what
    the fuzzer's corpus needs. *)

type t

val size : int
(** Number of slots (8192). *)

val create : unit -> t

val attach : t -> Probe.t -> unit
(** Subscribe as a probe sink; each emitted span marks one slot. *)

val slot_of_span : Span.t -> int
(** The slot a span hashes to (deterministic across processes). *)

val kind_prefix : Span.kind -> int
(** The 64-bit FNV-1a hash (folded to a native int) of the kind's
    {!Span.kind_name} plus its key separator: the start of every slot
    hash of that kind, computed once per kind. *)

val mark : t -> int -> unit

val mem : t -> int -> bool

val bits : t -> int
(** Population count: how many distinct paths were seen. *)

val marks : t -> int
(** Total spans observed (coverage hits including re-marks). *)

val merge_into : into:t -> t -> int
(** OR the second map into [into]; returns the number of bits newly set
    — the fuzzer's "new coverage" signal. *)

val adds_coverage : global:t -> t -> bool
(** Whether {!merge_into} would set at least one new bit, without
    modifying either map. *)

val equal : t -> t -> bool

val to_hex : t -> string
(** The raw bitmap as lowercase hex (ledger persistence). *)

val of_hex : string -> t
(** Inverse of {!to_hex}; raises [Invalid_argument] on malformed
    input. *)
