(** Plain-text table rendering for the bench harness, matching the
    row/column shapes of the paper's tables and figures. *)

type align = Left | Right
type t

val create : ?aligns:align list -> string list -> t
(** Headers plus per-column alignment (default: all right-aligned). *)

val add_row : t -> string list -> unit
(** Raises when the number of cells does not match the headers. *)

val render : t -> string
val print : t -> unit

val print_rows : ?aligns:align list -> string list -> string list list -> unit
(** [create], one [add_row] per row, then [print]. *)
