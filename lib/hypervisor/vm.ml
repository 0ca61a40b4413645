(* A virtual machine: its virtualization level, address space and device
   dispatch tables. vCPUs are added by [Vcpu.create], which registers
   itself here. *)

type mmio_handler = Svt_mem.Addr.Gpa.t -> int64 -> int -> int64 option
(* (gpa, value-or-zero-for-reads, size) -> reply for reads *)

type t = {
  name : string;
  level : int; (* 1 = guest of L0, 2 = nested guest *)
  aspace : Svt_mem.Address_space.t;
  cpuid : Svt_arch.Cpuid_db.t;
  mmio : (string, mmio_handler) Hashtbl.t; (* region name -> handler *)
  io_ports : (int, mmio_handler) Hashtbl.t;
  hypercalls : (int, int64 -> int64) Hashtbl.t;
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
    io_ports = Hashtbl.create 8;
    hypercalls = Hashtbl.create 8;
  }

let name t = t.name
let level t = t.level
let aspace t = t.aspace
let cpuid_db t = t.cpuid

let register_mmio t ~region handler = Hashtbl.replace t.mmio region handler

let register_io t ~port handler = Hashtbl.replace t.io_ports port handler

let register_hypercall t ~nr f = Hashtbl.replace t.hypercalls nr f

let handle_mmio t gpa value size =
  match Svt_mem.Address_space.region_of_gpa t.aspace gpa with
  | Some r -> (
      match Hashtbl.find_opt t.mmio r.Svt_mem.Address_space.name with
      | Some h -> h gpa value size
      | None -> None)
  | None -> None

let handle_io t port value size =
  match Hashtbl.find_opt t.io_ports port with
  | Some h -> h (Svt_mem.Addr.Gpa.of_int 0) value size
  | None -> None

let handle_hypercall t nr arg =
  match Hashtbl.find_opt t.hypercalls nr with
  | Some f -> Some (f arg)
  | None -> None

