(* A fuzz input: a straight-line guest program over the architectural op
   vocabulary, a set of vmcs12 pokes applied before the first entry, and
   a fault plan. Inputs are plain data with an exact one-line text form:
   the corpus persists them in ledger rows and the shrinker rewrites
   them, so [of_string (to_string i) = i] must hold structurally for
   everything the generator can produce. *)

(* One guest operation = one architectural event (or a short fixed
   compound, flagged below). Arguments are integers so serialization is
   exact; compute spans are microseconds, GPAs are raw page-aligned
   integers. *)
type op =
  | Compute_us of int  (** straight-line computation, microseconds *)
  | Increments of int  (** dependent register increments *)
  | Cpuid of int  (** cpuid leaf *)
  | Wrmsr of int * int64  (** index into {!msrs} x value *)
  | Rdmsr of int  (** index into {!msrs} *)
  | Io_write of int * int  (** port x value *)
  | Io_read of int
  | Mmio_write of int * int  (** gpa x value *)
  | Mmio_read of int
  | Page_fault of int  (** gpa *)
  | Vmcall of int * int64  (** nr x arg *)
  | Sleep_us of int  (** arm the TSC-deadline timer, then HLT *)
  | Hlt  (** bare HLT: hangs unless something wakes the vCPU *)
  | Kick of int  (** enqueue a host event (an interrupt for L1) *)

type t = {
  ops : op list;
  pokes : (int * int64) list;
      (** vmcs12 pokes: index into {!Svt_vmcs.Field.all} x raw value,
          written before the program starts (the entry checks see them
          on the next transform) *)
  plan : Svt_fault.Plan.t;
}

let empty = { ops = []; pokes = []; plan = Svt_fault.Plan.empty }

(* MSRs a fuzzed program may touch. IA32_TSC reads the virtual clock
   (timing, not semantics — it would poison the fingerprint),
   IA32_TSC_DEADLINE writes arm the timer at an absolute instant (the
   [Sleep_us] op exercises that path with a sane relative deadline), and
   IA32_APIC_BASE relocates the LAPIC. All three stay out. *)
let msrs =
  [|
    Svt_arch.Msr.Ia32_efer;
    Svt_arch.Msr.Ia32_sysenter_cs;
    Svt_arch.Msr.Ia32_sysenter_esp;
    Svt_arch.Msr.Ia32_sysenter_eip;
    Svt_arch.Msr.Ia32_star;
    Svt_arch.Msr.Ia32_lstar;
    Svt_arch.Msr.Ia32_gs_base;
    Svt_arch.Msr.Ia32_kernel_gs_base;
    Svt_arch.Msr.Ia32_spec_ctrl;
  |]

let n_msrs = Array.length msrs

let fields = Array.of_list Svt_vmcs.Field.all
let n_fields = Array.length fields

let op_to_string = function
  | Compute_us n -> Printf.sprintf "cu:%d" n
  | Increments n -> Printf.sprintf "inc:%d" n
  | Cpuid leaf -> Printf.sprintf "cpuid:%d" leaf
  | Wrmsr (i, v) -> Printf.sprintf "wrmsr:%d:%Lx" i v
  | Rdmsr i -> Printf.sprintf "rdmsr:%d" i
  | Io_write (p, v) -> Printf.sprintf "iow:%d:%d" p v
  | Io_read p -> Printf.sprintf "ior:%d" p
  | Mmio_write (a, v) -> Printf.sprintf "mmw:%x:%d" a v
  | Mmio_read a -> Printf.sprintf "mmr:%x" a
  | Page_fault a -> Printf.sprintf "pf:%x" a
  | Vmcall (nr, arg) -> Printf.sprintf "vmcall:%d:%Lx" nr arg
  | Sleep_us n -> Printf.sprintf "sleep:%d" n
  | Hlt -> "hlt"
  | Kick v -> Printf.sprintf "kick:%d" v

let op_of_string s =
  let fail () = Error (Printf.sprintf "bad op %S" s) in
  let int_of s = int_of_string_opt s in
  let hex_of s = int_of_string_opt ("0x" ^ s) in
  let hex64_of s = Int64.of_string_opt ("0x" ^ s) in
  match String.split_on_char ':' s with
  | [ "cu"; n ] -> (
      match int_of n with Some n -> Ok (Compute_us n) | None -> fail ())
  | [ "inc"; n ] -> (
      match int_of n with Some n -> Ok (Increments n) | None -> fail ())
  | [ "cpuid"; n ] -> (
      match int_of n with Some n -> Ok (Cpuid n) | None -> fail ())
  | [ "wrmsr"; i; v ] -> (
      match (int_of i, hex64_of v) with
      | Some i, Some v -> Ok (Wrmsr (i, v))
      | _ -> fail ())
  | [ "rdmsr"; i ] -> (
      match int_of i with Some i -> Ok (Rdmsr i) | None -> fail ())
  | [ "iow"; p; v ] -> (
      match (int_of p, int_of v) with
      | Some p, Some v -> Ok (Io_write (p, v))
      | _ -> fail ())
  | [ "ior"; p ] -> (
      match int_of p with Some p -> Ok (Io_read p) | None -> fail ())
  | [ "mmw"; a; v ] -> (
      match (hex_of a, int_of v) with
      | Some a, Some v -> Ok (Mmio_write (a, v))
      | _ -> fail ())
  | [ "mmr"; a ] -> (
      match hex_of a with Some a -> Ok (Mmio_read a) | None -> fail ())
  | [ "pf"; a ] -> (
      match hex_of a with Some a -> Ok (Page_fault a) | None -> fail ())
  | [ "vmcall"; nr; arg ] -> (
      match (int_of nr, hex64_of arg) with
      | Some nr, Some arg -> Ok (Vmcall (nr, arg))
      | _ -> fail ())
  | [ "sleep"; n ] -> (
      match int_of n with Some n -> Ok (Sleep_us n) | None -> fail ())
  | [ "hlt" ] -> Ok Hlt
  | [ "kick"; v ] -> (
      match int_of v with Some v -> Ok (Kick v) | None -> fail ())
  | _ -> fail ()

(* One line, three [|]-separated sections: ops (space-separated tokens),
   pokes ([fieldindex=hexvalue]), fault plan (its own canonical
   grammar). No section's tokens contain [|] or spaces. *)
let to_string t =
  let ops = String.concat " " (List.map op_to_string t.ops) in
  let pokes =
    String.concat " "
      (List.map (fun (i, v) -> Printf.sprintf "%d=%Lx" i v) t.pokes)
  in
  ops ^ "|" ^ pokes ^ "|" ^ Svt_fault.Plan.to_string t.plan

let of_string s =
  let ( let* ) = Result.bind in
  let tokens part =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' part)
  in
  match String.split_on_char '|' s with
  | [ ops_s; pokes_s; plan_s ] ->
      let* ops =
        List.fold_left
          (fun acc tok ->
            let* acc = acc in
            let* op = op_of_string tok in
            Ok (op :: acc))
          (Ok []) (tokens ops_s)
      in
      let* pokes =
        List.fold_left
          (fun acc tok ->
            let* acc = acc in
            match String.split_on_char '=' tok with
            | [ i; v ] -> (
                match (int_of_string_opt i, Int64.of_string_opt ("0x" ^ v)) with
                | Some i, Some v when i >= 0 && i < n_fields ->
                    Ok ((i, v) :: acc)
                | _ -> Error (Printf.sprintf "bad poke %S" tok))
            | _ -> Error (Printf.sprintf "bad poke %S" tok))
          (Ok []) (tokens pokes_s)
      in
      let* plan = Svt_fault.Plan.of_string plan_s in
      Ok { ops = List.rev ops; pokes = List.rev pokes; plan }
  | _ -> Error "input: expected ops|pokes|plan"

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg ("Input." ^ e)

let equal a b =
  a.ops = b.ops && a.pokes = b.pokes
  && Svt_fault.Plan.entries a.plan = Svt_fault.Plan.entries b.plan

let steps t = List.length t.ops + List.length t.pokes

let has_wait t =
  List.exists (function Sleep_us _ | Hlt -> true | _ -> false) t.ops
