(** Extended page tables: the guest-physical → host-physical translation
    a hypervisor maintains per VM, as a real 4-level radix tree with
    per-entry permissions and a deliberate-misconfiguration marker.

    The misconfig marker reproduces how KVM implements virtio doorbells:
    MMIO regions are left misconfigured so every guest store raises
    EPT_MISCONFIG — the exit the paper's profiles show dominating L0's
    time under I/O load (§6.2, §6.3). *)

type perm = { read : bool; write : bool; exec : bool }

val rwx : perm
val ro : perm

type access = Read | Write | Exec

type entry =
  | Page of { hpa : Addr.Hpa.t; perm : perm }
  | Misconfig of { tag : string }

type fault =
  | Violation of { gpa : Addr.Gpa.t; access : access }
  | Misconfiguration of { gpa : Addr.Gpa.t; tag : string }

type t

val create : unit -> t

val map : t -> gpa:Addr.Gpa.t -> hpa:Addr.Hpa.t -> perm:perm -> unit
(** Map one page (both addresses page-aligned). *)

val map_range :
  t -> gpa:Addr.Gpa.t -> len:int -> perm:perm -> hpa:Addr.Hpa.t -> unit
(** Map the [len] bytes (rounded up to pages) from [gpa] onto the
    contiguous host run from [hpa] (both page-aligned): page [i] of the
    range to the host frame [i] pages above [hpa]. One table walk per
    512-page leaf table; no allocation per page. A whole 512-page-aligned
    block onto a 512-frame-aligned run, where nothing is mapped yet, is one
    2 MB entry; a later 4 KB write inside it splits it into 512 leaf
    entries, so every read is the same as with 4 KB entries. *)

val mark_misconfig : t -> gpa:Addr.Gpa.t -> tag:string -> unit
(** Mark a page deliberately misconfigured (an MMIO doorbell). *)

val lookup : t -> Addr.Gpa.t -> entry option

val translate : t -> gpa:Addr.Gpa.t -> access:access -> (Addr.Hpa.t, fault) result
(** Translate for a given access, preserving the page offset, or return
    the architectural fault. *)

val resolve : t -> gpa:Addr.Gpa.t -> access:access -> int
(** {!translate} as a bare int, for the guest-memory accessors: the
    host-physical address, or [-1] when the access faults ({!translate}
    names the fault). Same permission and misconfiguration checks;
    allocates nothing. *)

val unmap : t -> gpa:Addr.Gpa.t -> unit

val mapped_pages : t -> int
(** Pages currently mapped, 512 for a 2 MB entry (misconfigured entries
    excluded). *)

val pp_fault : Format.formatter -> fault -> unit
