(** Sparse host physical memory with byte-level contents (pages
    materialize zero-filled on first touch; a page is found by frame
    number with two array loads). Real contents matter:
    virtqueue rings and the SW SVt command channels live here and are
    read and written by both guests and hypervisors. *)

type t

val create : unit -> t

val page_for : t -> Addr.Hpa.t -> bytes
(** The 4 KB page holding [hpa], materialized on first touch; the byte
    at [Addr.Hpa.offset hpa] is the one the accessors below read and
    write. A page, once materialized, is never replaced, so these are
    its bytes for the life of [t]. *)

val read_u8 : t -> Addr.Hpa.t -> int

val read_u64 : t -> Addr.Hpa.t -> int
(** Multi-byte accessors are little-endian and handle page-crossing
    accesses; each touches exactly its own bytes. A 64-bit word is an
    OCaml int, as [Int64.to_int] gives it (bit 63 is dropped), so no
    access boxes an [int64]. *)

val write_u64 : t -> Addr.Hpa.t -> int -> unit
(** Stores [Int64.of_int v]. *)

val read_u32 : t -> Addr.Hpa.t -> int
val write_u32 : t -> Addr.Hpa.t -> int -> unit
val read_u16 : t -> Addr.Hpa.t -> int
val write_u16 : t -> Addr.Hpa.t -> int -> unit

val read_into : t -> Addr.Hpa.t -> bytes -> off:int -> len:int -> unit
(** [read_into t hpa buf ~off ~len] copies the [len] bytes of host memory
    starting at [hpa] into [buf] at [off]: one page lookup and one blit
    per 4 KB page. Raises [Invalid_argument] if [off, off + len) is not a
    valid range of [buf]. *)

val write_from : t -> Addr.Hpa.t -> bytes -> off:int -> len:int -> unit
(** [write_from t hpa buf ~off ~len] is the reverse copy: [len] bytes of
    [buf] from [off] into host memory starting at [hpa]. *)

val resident_pages : t -> int
