(** The corpus: kept inputs in memory, and their persistent form as
    campaign-ledger rows.

    A fuzz journal is an ordinary JSONL ledger — CRC'd rows that
    {!Svt_campaign.Ledger.recover} can salvage — whose rows come in
    three flavours distinguished by the point's workload name: ["fuzz"]
    (a kept new-coverage input, with the serialized input and its
    coverage bitmap under [data]), ["fuzz-violation"] (a violating
    input plus its shrunk reproducer and trace), and ["fuzz-progress"]
    (a round barrier: everything before it is a complete round, so
    resume restarts from [fuzz.next_index]). *)

type t

val create : unit -> t
val size : t -> int
val add : t -> Input.t -> unit

val pick : t -> Svt_engine.Prng.t -> Input.t option
(** A uniformly drawn kept input (mutation parent); [None] while the
    corpus is empty. *)

(** {2 Ledger rows} *)

val kept_entry :
  index:int ->
  bits_added:int ->
  events:int ->
  cov:Svt_obs.Coverage.t ->
  Input.t ->
  Svt_campaign.Ledger.entry

val violation_entry :
  index:int ->
  violation:string ->
  input:Input.t ->
  shrunk:Input.t ->
  Svt_campaign.Ledger.entry

val progress_entry :
  next_index:int ->
  execs:int ->
  kept:int ->
  violations:int ->
  cov_bits:int ->
  events:int ->
  Svt_campaign.Ledger.entry

type row =
  | Kept of { index : int; input : Input.t; cov : Svt_obs.Coverage.t }
  | Violation of { index : int; input : Input.t; shrunk : Input.t }
  | Progress of {
      next_index : int;
      execs : int;
      kept : int;
      violations : int;
      events : int;
    }

val classify :
  Svt_campaign.Ledger.entry -> (row option, string) result
(** Decode a salvaged ledger row; [Ok None] for rows some other tool
    wrote into the same file. *)
