(* A virtual machine: its virtualization level, address space and MMIO
   dispatch table. A vCPU points at its VM; the VM keeps no vCPU list. *)

type mmio_handler = Svt_mem.Addr.Gpa.t -> int64 -> int -> int64 option
(* (gpa, value-or-zero-for-reads, size) -> reply for reads *)

type t = {
  name : string;
  level : int; (* 1 = guest of L0, 2 = nested guest *)
  aspace : Svt_mem.Address_space.t;
  cpuid : Svt_arch.Cpuid_db.t;
  mmio : (string, mmio_handler) Hashtbl.t; (* region name -> handler *)
}

let create ~machine ~name ~level ~ram_bytes ~cpuid =
  {
    name;
    level;
    aspace =
      Svt_mem.Address_space.create ~mem:machine.Machine.mem
        ~alloc:machine.Machine.alloc ~ram_bytes;
    cpuid;
    mmio = Hashtbl.create 8;
  }

let name t = t.name
let level t = t.level
let aspace t = t.aspace
let cpuid_db t = t.cpuid

let register_mmio t ~region handler = Hashtbl.replace t.mmio region handler

let handle_mmio t gpa value size =
  match Svt_mem.Address_space.region_of_gpa t.aspace gpa with
  | Some r -> (
      match Hashtbl.find_opt t.mmio r.Svt_mem.Address_space.name with
      | Some h -> h gpa value size
      | None -> None)
  | None -> None
