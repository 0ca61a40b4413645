(* Address types. Guest-physical and host-physical addresses are distinct
   types so that the VMCS-transformation code (which must translate every
   guest-physical pointer L1 wrote into the host-physical address L0
   assigned — paper §2.1) cannot confuse the two spaces. *)

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

module type S = sig
  type t

  val of_int : int -> t
  val to_int : t -> int
  val add : t -> int -> t
  val page_of : t -> int
  val offset : t -> int
  val align_down : t -> t
  val is_page_aligned : t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (Tag : sig
  val name : string
end) : S = struct
  type t = int

  let of_int a =
    if a < 0 then invalid_arg (Tag.name ^ ": negative address");
    a

  let to_int a = a
  let add a n = of_int (a + n)
  let page_of a = a lsr page_shift
  let offset a = a land page_mask
  let align_down a = a land lnot page_mask
  let is_page_aligned a = a land page_mask = 0
  let compare = Int.compare
  let pp ppf a = Fmt.pf ppf "%s:%#x" Tag.name a
end

module Gpa = Make (struct
  let name = "gpa"
end)

module Hpa = Make (struct
  let name = "hpa"
end)

module Gva = Make (struct
  let name = "gva"
end)
