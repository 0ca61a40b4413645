(* Tests for the VMCS model: fields and classification, VMCS objects with
   dirty tracking, the shadowing policy, the vmcs12<->vmcs02 transforms
   (pointer translation, control merging), and the VM-entry checks. *)

module Field = Svt_vmcs.Field
module Vmcs = Svt_vmcs.Vmcs
module Shadow = Svt_vmcs.Shadow
module Transform = Svt_vmcs.Transform
module Checks = Svt_vmcs.Checks
module Ept = Svt_mem.Ept
module Addr = Svt_mem.Addr

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* --- Fields ----------------------------------------------------------------- *)

let test_field_index () =
  List.iteri (fun i f -> checki (Field.name f) i (Field.index f)) Field.all

let test_field_classification () =
  checkb "ept pointer is physical" true (Field.is_physical_pointer Field.Ept_pointer);
  checkb "guest rip is guest state" true (Field.is_guest_state Field.Guest_rip);
  checkb "exit reason is exit info" true (Field.is_exit_info Field.Exit_reason);
  checkb "pin controls are controls" true (Field.is_control Field.Pin_based_controls)

(* --- Vmcs objects ------------------------------------------------------------ *)

let test_vmcs_rw_and_dirty () =
  let v = Vmcs.create () in
  check64 "unset reads zero" 0L (Vmcs.read v Field.Guest_rip);
  Vmcs.write v Field.Guest_rip 0x400000L;
  Vmcs.write v Field.Guest_rsp 0x7FFF00L;
  Vmcs.write v Field.Guest_rip 0x400002L;
  checki "dirty tracks unique fields" 2 (List.length (Vmcs.dirty_fields v));
  Vmcs.clean v;
  checki "clean" 0 (List.length (Vmcs.dirty_fields v));
  check64 "value persists" 0x400002L (Vmcs.read v Field.Guest_rip)

let test_vmcs_record_exit () =
  let v = Vmcs.create () in
  Vmcs.record_exit v ~reason:Svt_arch.Exit_reason.Cpuid ~qualification:7L
    ~instruction_length:2;
  check64 "reason number" 10L (Vmcs.peek v Field.Exit_reason);
  check64 "qualification" 7L (Vmcs.read v Field.Exit_qualification)

(* Reads, and re-writes of fields that are already dirty, are the
   per-exit VMCS traffic; none of it may allocate. *)
let test_vmcs_access_allocates_nothing () =
  let v = Vmcs.create () in
  let fields = Array.of_list Field.all in
  let values = Array.map (fun f -> Int64.of_int (0x1000 + Field.index f)) fields in
  let n = Array.length fields in
  let other = Vmcs.create () in
  let pass () =
    for i = 0 to 999 do
      let k = i mod n in
      Vmcs.write v fields.(k) (Vmcs.read v fields.((k + 1) mod n));
      Vmcs.write v fields.(k) values.(k);
      Vmcs.copy ~src:v ~dst:other fields.(k)
    done
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "1,000 reads, re-writes and copies allocate %.0f minor words"
       words)
    true (words < 16.)

(* [Vmcs.copy] is [write dst f (read src f)]: over any sequence of source
   writes, copies and cleans, both leave the same values and the same
   dirty stack behind. *)
type op = Set of int * int | Copy of int | Clean_src | Clean_dst

let n_fields = List.length Field.all

let op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun i v -> Set (i, v)) (int_bound (n_fields - 1)) int);
        (6, map (fun i -> Copy i) (int_bound (n_fields - 1)));
        (1, return Clean_src);
        (1, return Clean_dst) ])

let prop_copy_is_write_of_read =
  QCheck.Test.make ~name:"copy is write of read" ~count:200
    QCheck.(make Gen.(list_size (int_bound 120) op_gen))
    (fun ops ->
      let side copy =
        let src = Vmcs.create () and dst = Vmcs.create () in
        List.iter
          (function
            | Set (i, v) -> Vmcs.write src (Field.of_index i) (Int64.of_int v)
            | Copy i -> copy ~src ~dst (Field.of_index i)
            | Clean_src -> Vmcs.clean src
            | Clean_dst -> Vmcs.clean dst)
          ops;
        let state v =
          ( List.map (Vmcs.read v) Field.all,
            Vmcs.dirty_count v,
            List.init (Vmcs.dirty_count v) (Vmcs.dirty_index v) )
        in
        (state src, state dst)
      in
      side Vmcs.copy
      = side (fun ~src ~dst f -> Vmcs.write dst f (Vmcs.read src f)))

(* --- Shadowing ---------------------------------------------------------------- *)

let test_shadow_policy () =
  let s = Shadow.hardware_shadowing_enabled in
  checkb "guest rip shadowed" true (Shadow.shadowed s Field.Guest_rip);
  checkb "exit reason shadowed" true (Shadow.shadowed s Field.Exit_reason);
  checkb "ept pointer never shadowed" false (Shadow.shadowed s Field.Ept_pointer);
  checkb "controls not shadowed" false (Shadow.shadowed s Field.Cpu_based_controls);
  (* SVt fields never shadow: L0 virtualizes context ids (§4) *)
  checkb "svt fields not shadowed" false (Shadow.shadowed s Field.Svt_vm)

let test_shadow_disabled_all_trap () =
  let s = Shadow.no_shadowing in
  checkb "nothing shadowed" true
    (List.for_all (fun f -> not (Shadow.shadowed s f)) Field.all)

(* --- Transforms --------------------------------------------------------------- *)

let make_l1_ept () =
  let e = Ept.create () in
  (* identity-ish mapping: L1 GPA page N -> host 0x40000000 + N *)
  for page = 0 to 63 do
    Ept.map e
      ~gpa:(Addr.Gpa.of_int (page * 4096))
      ~hpa:(Addr.Hpa.of_int (0x40000000 + (page * 4096)))
      ~perm:Ept.rwx
  done;
  e

let test_transform_entry_translates_pointers () =
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  let l1_ept = make_l1_ept () in
  Vmcs.write vmcs12 Field.Msr_bitmap 0x3000L;
  Vmcs.write vmcs12 Field.Guest_rip 0x1234L;
  let r =
    Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0x7EF0000L
  in
  checkb "copied fields" true (r.Transform.fields_copied >= 2);
  checki "one pointer translated" 1 r.Transform.pointers_translated;
  check64 "gpa -> hpa" (Int64.of_int (0x40000000 + 0x3000))
    (Vmcs.peek vmcs02 Field.Msr_bitmap);
  check64 "plain field copied" 0x1234L (Vmcs.peek vmcs02 Field.Guest_rip);
  checki "vmcs12 cleaned" 0 (List.length (Vmcs.dirty_fields vmcs12))

let test_transform_entry_replaces_ept_pointer () =
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  let l1_ept = make_l1_ept () in
  Vmcs.write vmcs12 Field.Ept_pointer 0x5000L;
  ignore (Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0x7EF0000L);
  (* L1's EPT pointer must NOT be translated but replaced with the shadow
     EPT L0 maintains for L2 *)
  check64 "shadow ept" 0x7EF0000L (Vmcs.peek vmcs02 Field.Ept_pointer)

let test_transform_entry_merges_controls () =
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  let l1_ept = make_l1_ept () in
  (* L1 asks for no intercepts at all; L0 still forces its own *)
  Vmcs.write vmcs12 Field.Cpu_based_controls 0L;
  let r = Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L in
  checkb "merged at least one control" true (r.Transform.controls_merged >= 1);
  checkb "L0-forced bits present" true
    (Int64.logand (Vmcs.peek vmcs02 Field.Cpu_based_controls)
       Transform.l0_forced_controls
    = Transform.l0_forced_controls)

let test_transform_entry_invalid_pointer_raises () =
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  let l1_ept = Ept.create () (* empty: nothing maps *) in
  Vmcs.write vmcs12 Field.Msr_bitmap 0x3000L;
  checkb "raises Invalid_pointer" true
    (try
       ignore (Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L);
       false
     with Transform.Invalid_pointer (f, v) ->
       Field.equal f Field.Msr_bitmap && v = 0x3000L)

let test_transform_exit_reflects_state () =
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  Vmcs.record_exit vmcs02 ~reason:Svt_arch.Exit_reason.Hlt ~qualification:0L
    ~instruction_length:1;
  Vmcs.write vmcs02 Field.Guest_rip 0xABCDL;
  let r = Transform.exit ~vmcs02 ~vmcs12 in
  checkb "copies exit info + guest state" true (r.Transform.fields_copied > 10);
  check64 "reason visible to L1" 12L (Vmcs.peek vmcs12 Field.Exit_reason);
  check64 "guest rip reflected" 0xABCDL (Vmcs.peek vmcs12 Field.Guest_rip)

let test_transform_only_dirty_copied () =
  let vmcs12 = Vmcs.create () in
  let vmcs02 = Vmcs.create () in
  let l1_ept = make_l1_ept () in
  Vmcs.write vmcs12 Field.Guest_rip 1L;
  ignore (Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L);
  (* second entry with nothing dirty copies nothing *)
  let r2 = Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L in
  checki "incremental" 0 r2.Transform.fields_copied

(* --- Checks ---------------------------------------------------------------------- *)

let test_checks_minimal_passes () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  checkb "passes" true (Checks.run v = Ok ())

let test_checks_detect_bad_guest_state () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Guest_cr0 0L;
  match Checks.run v with
  | Error es -> checkb "mentions CR0" true (List.length es >= 1)
  | Ok () -> Alcotest.fail "must fail with PG/PE clear"

let test_checks_detect_bad_host () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Host_rip 0L;
  checkb "fails" true (Checks.run v <> Ok ())

let test_checks_svt_context_range () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Svt_vm 5L (* out of range on a 2-context core *);
  checkb "rejects bad context" true (Checks.run ~n_hw_contexts:2 v <> Ok ());
  Vmcs.write v Field.Svt_vm 1L;
  checkb "accepts valid context" true (Checks.run ~n_hw_contexts:2 v = Ok ())

let test_checks_visor_vm_must_differ () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Svt_visor 1L;
  Vmcs.write v Field.Svt_vm 1L;
  match Checks.run ~n_hw_contexts:3 v with
  | Error es ->
      checkb "reports the clash" true
        (List.exists
           (function Checks.Invalid_svt_context _ -> true | _ -> false)
           es)
  | Ok () -> Alcotest.fail "visor == vm must be rejected"

let test_checks_link_pointer_alignment () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Vmcs_link_pointer 0x1001L;
  checkb "unaligned link rejected" true (Checks.run v <> Ok ())

(* Every rejection rule of Checks.run, one corruption at a time, pinned to
   the failure constructor and offending field the rule must report. *)
let test_checks_every_rule () =
  let expect name field value ~failure =
    let v = Vmcs.create () in
    Checks.init_minimal v;
    Vmcs.write v field value;
    match Checks.run ~n_hw_contexts:2 v with
    | Ok () -> Alcotest.fail (name ^ ": corruption must be rejected")
    | Error es ->
        checkb (name ^ ": names the offending field") true
          (List.exists (fun e -> Checks.offending_field e = field) es);
        checkb (name ^ ": right failure class") true (List.exists failure es)
  in
  let guest = function Checks.Invalid_guest_state _ -> true | _ -> false in
  let host = function Checks.Invalid_host_state _ -> true | _ -> false in
  let ctrl = function Checks.Invalid_control _ -> true | _ -> false in
  let svt = function Checks.Invalid_svt_context _ -> true | _ -> false in
  (* CR0.PE clear (PG still set) *)
  expect "cr0.pe" Field.Guest_cr0 0x80000000L ~failure:guest;
  (* CR0.PG clear (PE still set) *)
  expect "cr0.pg" Field.Guest_cr0 0x1L ~failure:guest;
  (* CR4.VMXE clear on the host *)
  expect "cr4.vmxe" Field.Host_cr4 0L ~failure:host;
  (* null HOST_RIP *)
  expect "host_rip" Field.Host_rip 0L ~failure:host;
  (* unaligned VMCS link pointer (0 is the legal "no link" sentinel) *)
  expect "link" Field.Vmcs_link_pointer 0x1001L ~failure:ctrl;
  (* each SVt context field out of range on a 2-context core *)
  expect "svt_visor" Field.Svt_visor 2L ~failure:svt;
  expect "svt_vm" Field.Svt_vm 7L ~failure:svt;
  expect "svt_nested" Field.Svt_nested 3L ~failure:svt;
  (* visor = vm clash needs two writes, so it is spelled out *)
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Svt_visor 0L;
  Vmcs.write v Field.Svt_vm 0L;
  match Checks.run ~n_hw_contexts:2 v with
  | Ok () -> Alcotest.fail "visor=vm: corruption must be rejected"
  | Error es ->
      checkb "visor=vm: SVt class, pinned to Svt_vm" true
        (List.exists
           (fun e -> svt e && Checks.offending_field e = Field.Svt_vm)
           es)

(* The fault-injection repair path: resetting every offending field to its
   default turns any combination of rejections back into a passing
   config. *)
let test_checks_repair_restores_validity () =
  let v = Vmcs.create () in
  Checks.init_minimal v;
  Vmcs.write v Field.Guest_cr0 0L;
  Vmcs.write v Field.Host_rip 0L;
  Vmcs.write v Field.Vmcs_link_pointer 0x1001L;
  Vmcs.write v Field.Svt_visor 9L;
  (match Checks.run ~n_hw_contexts:2 v with
  | Ok () -> Alcotest.fail "corrupted vmcs must fail checks"
  | Error es ->
      checkb "multiple rules fire" true (List.length es >= 4);
      List.iter (Checks.repair v) es);
  checkb "repair restores a passing config" true
    (Checks.run ~n_hw_contexts:2 v = Ok ())

let () =
  Alcotest.run "svt_vmcs"
    [
      ( "fields",
        [
          Alcotest.test_case "classification" `Quick test_field_classification;
          Alcotest.test_case "index follows all" `Quick test_field_index;
        ] );
      ( "vmcs",
        [
          Alcotest.test_case "read/write and dirty tracking" `Quick
            test_vmcs_rw_and_dirty;
          Alcotest.test_case "record exit" `Quick test_vmcs_record_exit;
          Alcotest.test_case "reads and dirty re-writes allocate nothing" `Quick
            test_vmcs_access_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_copy_is_write_of_read;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "hardware shadowing policy" `Quick test_shadow_policy;
          Alcotest.test_case "no shadowing traps everything" `Quick
            test_shadow_disabled_all_trap;
        ] );
      ( "transform",
        [
          Alcotest.test_case "entry translates pointers" `Quick
            test_transform_entry_translates_pointers;
          Alcotest.test_case "entry installs shadow EPT pointer" `Quick
            test_transform_entry_replaces_ept_pointer;
          Alcotest.test_case "entry merges controls" `Quick
            test_transform_entry_merges_controls;
          Alcotest.test_case "invalid pointer raises" `Quick
            test_transform_entry_invalid_pointer_raises;
          Alcotest.test_case "exit reflects state to L1" `Quick
            test_transform_exit_reflects_state;
          Alcotest.test_case "only dirty fields copied" `Quick
            test_transform_only_dirty_copied;
        ] );
      ( "checks",
        [
          Alcotest.test_case "minimal config passes" `Quick test_checks_minimal_passes;
          Alcotest.test_case "bad guest state" `Quick test_checks_detect_bad_guest_state;
          Alcotest.test_case "bad host state" `Quick test_checks_detect_bad_host;
          Alcotest.test_case "svt context range" `Quick test_checks_svt_context_range;
          Alcotest.test_case "visor != vm" `Quick test_checks_visor_vm_must_differ;
          Alcotest.test_case "link pointer alignment" `Quick
            test_checks_link_pointer_alignment;
          Alcotest.test_case "every rejection rule" `Quick
            test_checks_every_rule;
          Alcotest.test_case "repair restores validity" `Quick
            test_checks_repair_restores_validity;
        ] );
    ]
