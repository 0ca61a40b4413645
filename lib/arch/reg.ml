(* Architectural register names. The set matters because VM trap/resume
   context switches save and restore "dozens of registers" (paper §1);
   [switched_set] below is exactly the set the hypervisor thunk touches,
   and its cardinality drives both the baseline save/restore cost and the
   SVt cross-context access cost. *)

type gpr =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

type t =
  | Gpr of gpr
  | Rip
  | Rflags
  | Cr of int (* CR0, CR3, CR4 *)
  | Dr of int (* debug registers *)
  | Segment of string (* cs, ss, ds, es, fs, gs, tr, ldtr base/selector *)

let all_gprs =
  [ RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP;
    R8; R9; R10; R11; R12; R13; R14; R15 ]

let gpr_name = function
  | RAX -> "rax" | RBX -> "rbx" | RCX -> "rcx" | RDX -> "rdx"
  | RSI -> "rsi" | RDI -> "rdi" | RBP -> "rbp" | RSP -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"

let name = function
  | Gpr g -> gpr_name g
  | Rip -> "rip"
  | Rflags -> "rflags"
  | Cr n -> Printf.sprintf "cr%d" n
  | Dr n -> Printf.sprintf "dr%d" n
  | Segment s -> s

let segments = [ "cs"; "ss"; "ds"; "es"; "fs"; "gs"; "tr"; "ldtr" ]

(* Registers exchanged on every VM trap/resume by the software thunk plus
   the lazily-switched ones KVM manages (paper §2.3: "in excess of various
   dozens of values"). *)
let switched_set =
  List.map (fun g -> Gpr g) all_gprs
  @ [ Rip; Rflags; Cr 0; Cr 3; Cr 4; Dr 7 ]
  @ List.map (fun s -> Segment s) segments

let switched_count = List.length switched_set

let gpr_index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

(* Position in [switched_set], so per-context state over the switched
   set can live in a flat array. *)
let slot = function
  | Gpr g -> gpr_index g
  | Rip -> 16
  | Rflags -> 17
  | Cr 0 -> 18
  | Cr 3 -> 19
  | Cr 4 -> 20
  | Dr 7 -> 21
  | Segment "cs" -> 22
  | Segment "ss" -> 23
  | Segment "ds" -> 24
  | Segment "es" -> 25
  | Segment "fs" -> 26
  | Segment "gs" -> 27
  | Segment "tr" -> 28
  | Segment "ldtr" -> 29
  | Cr _ | Dr _ | Segment _ -> -1
