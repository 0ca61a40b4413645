(* Backing store for virtio-blk: an in-memory disk image, matching the
   paper's setup of loading the VM disk images into a tmpfs so results are
   "independent of storage technologies" (§6). Contents are real bytes so
   read-after-write holds across the whole stack. *)

type t = {
  sectors : int;
  store : (int, Bytes.t) Hashtbl.t; (* sector -> 512B payload *)
}

let sector_size = 512

let create ~size_mb =
  { sectors = size_mb * 2048; store = Hashtbl.create 4096 }

let check t sector count =
  if sector < 0 || count < 0 || sector + count > t.sectors then
    invalid_arg "Ramdisk: out of range"

let read t ~sector ~count =
  check t sector count;
  let out = Bytes.create (count * sector_size) in
  for i = 0 to count - 1 do
    match Hashtbl.find_opt t.store (sector + i) with
    | Some s -> Bytes.blit s 0 out (i * sector_size) sector_size
    | None -> () (* unwritten sectors read as zero *)
  done;
  out

let write t ~sector (data : Bytes.t) =
  let count = Bytes.length data / sector_size in
  if Bytes.length data mod sector_size <> 0 then
    invalid_arg "Ramdisk.write: not sector-aligned";
  check t sector count;
  for i = 0 to count - 1 do
    let s = Bytes.sub data (i * sector_size) sector_size in
    Hashtbl.replace t.store (sector + i) s
  done
