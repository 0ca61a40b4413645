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

(* An MMIO page is EPT-misconfigured with its region's name as the tag,
   so one EPT walk finds the handler, however many regions the guest
   has. RAM and unmapped pages carry no tag and reach no handler. *)
let handle_mmio t gpa value size =
  match Svt_mem.Ept.lookup (Svt_mem.Address_space.ept t.aspace) gpa with
  | Some (Svt_mem.Ept.Misconfig { tag }) -> (
      match Hashtbl.find_opt t.mmio tag with
      | Some h -> h gpa value size
      | None -> None)
  | Some (Svt_mem.Ept.Page _) | None -> None
