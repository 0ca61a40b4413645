(** Address types. Guest-physical (GPA) and host-physical (HPA) addresses
    are distinct types, so the VMCS-transformation code — which must
    translate every guest-physical pointer L1 wrote into the
    host-physical address L0 assigned (§2.1) — cannot confuse the two
    spaces. *)

val page_shift : int
val page_size : int

module type S = sig
  type t

  val of_int : int -> t
  (** Raises on negative addresses. *)

  val to_int : t -> int
  val add : t -> int -> t
  val page_of : t -> int
  val offset : t -> int
  val align_down : t -> t
  val is_page_aligned : t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (_ : sig
  val name : string
end) : S

module Gpa : S
(** Guest-physical addresses. *)

module Hpa : S
(** Host-physical addresses. *)

module Gva : S
(** Guest-virtual addresses. *)
