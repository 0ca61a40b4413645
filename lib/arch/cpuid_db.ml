(* CPUID leaf database. The architecture requires CPUID to be emulated by
   the hypervisor (it always exits), which is why the paper uses it as the
   canonical minimal trap (§2.3). Hypervisors mask leaves before exposing
   them to guests: L0 exposes VMX to L1 (so L1 can nest) but a plain guest
   like L2 sees no VMX. *)

type regs = { eax : int64; ebx : int64; ecx : int64; edx : int64 }

type t = { leaves : (int * int, regs) Hashtbl.t }

let ecx_vmx_bit = Int64.shift_left 1L 5
let ecx_hypervisor_bit = Int64.shift_left 1L 31

(* Built once per process: a [t] is never written after it is built, so
   every stack, and every worker domain, shares this one. *)
let host_db =
  let leaves = Hashtbl.create 16 in
  (* Maximum leaf + vendor id "GenuineIntel" packed per spec. *)
  Hashtbl.replace leaves (0, 0)
    { eax = 0x16L; ebx = 0x756E6547L; ecx = 0x6C65746EL; edx = 0x49656E69L };
  (* Family/model/stepping + feature bits incl. VMX (ECX bit 5). *)
  Hashtbl.replace leaves (1, 0)
    { eax = 0x306F2L; ebx = 0x200800L;
      ecx = Int64.logor 0x7FFAFBFFL ecx_vmx_bit; edx = 0xBFEBFBFFL };
  (* Cache/TLB and extended leaves, enough to be realistic. *)
  Hashtbl.replace leaves (2, 0)
    { eax = 0x76036301L; ebx = 0xF0B5FFL; ecx = 0L; edx = 0xC30000L };
  Hashtbl.replace leaves (7, 0)
    { eax = 0L; ebx = 0x37ABL; ecx = 0L; edx = 0L };
  Hashtbl.replace leaves (0x80000000, 0)
    { eax = 0x80000008L; ebx = 0L; ecx = 0L; edx = 0L };
  Hashtbl.replace leaves (0x80000001, 0)
    { eax = 0L; ebx = 0L; ecx = 0x21L; edx = 0x2C100800L };
  { leaves }

let host () = host_db

let query t ~leaf ~subleaf =
  match Hashtbl.find_opt t.leaves (leaf, subleaf) with
  | Some r -> r
  | None -> { eax = 0L; ebx = 0L; ecx = 0L; edx = 0L }

(* Derive the view a hypervisor exposes to a guest. [expose_vmx] keeps the
   VMX bit (needed by a guest that will itself run VMs, i.e. L1). The
   hypervisor-present bit is always set for guests. *)
let guest_view t ~expose_vmx =
  let leaves = Hashtbl.copy t.leaves in
  (match Hashtbl.find_opt leaves (1, 0) with
  | Some r ->
      let ecx = Int64.logor r.ecx ecx_hypervisor_bit in
      let ecx =
        if expose_vmx then ecx
        else Int64.logand ecx (Int64.lognot ecx_vmx_bit)
      in
      Hashtbl.replace leaves (1, 0) { r with ecx }
  | None -> ());
  { leaves }
