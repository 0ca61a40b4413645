(** Backing store for virtio-blk: an in-memory disk image with real byte
    contents (the paper loads VM images into a tmpfs so results are
    independent of storage technology). *)

type t

val sector_size : int
(** 512 bytes. *)

val create : size_mb:int -> t

val read : t -> sector:int -> count:int -> bytes
(** Unwritten sectors read as zeroes. *)

val write : t -> sector:int -> bytes -> unit
(** [data] must be a whole number of sectors. *)
