(** Measured-vs-paper comparison tables, and campaign-ledger diffing. *)

type row = { metric : string; paper : float; measured : float; unit_ : string }

val print : row list -> unit
(** One line per row: paper, measured, their ratio and the unit. *)

val diff_ledgers :
  Svt_campaign.Ledger.entry list -> Svt_campaign.Ledger.entry list -> int
(** Print one row per metric that changed between two ledgers (nothing
    when none did) and return the number of runs with drift. *)
