(* Cross-cutting property tests on the protocol-critical data paths:
   channel command serialization, VMCS transform behaviour, the SMT-core
   state machine, virtqueue operation sequences, and fabric ordering;
   and of the event engine itself, against a list-based reference
   scheduler. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Mode = Svt_core.Mode
module Channel = Svt_core.Channel
module Breakdown = Svt_hyp.Breakdown
module Exit_reason = Svt_arch.Exit_reason
module Smt_core = Svt_arch.Smt_core
module Vmcs = Svt_vmcs.Vmcs
module Field = Svt_vmcs.Field

(* A channel in a fresh 1 MB L1, copying the GPRs of context 0 of core
   0, and the address space its rings live in. *)
let channel_in_aspace () =
  let machine = Svt_hyp.Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"l1" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  let aspace = Svt_hyp.Vm.aspace vm in
  ( machine,
    aspace,
    Channel.create ~machine ~aspace ~wait:Mode.Mwait ~placement:Mode.Smt_sibling
      ~core:(Svt_hyp.Machine.core machine 0)
      ~ctx:0 () )

let make_channel () =
  let machine, _, ch = channel_in_aspace () in
  (machine, ch)

(* These properties never fill the ring, so a backpressure result is a
   property violation in its own right. *)
let post_ok ch dir bd cmd =
  match Channel.post ch dir bd cmd with
  | Ok () -> ()
  | Error `Backpressure -> failwith "unexpected ring backpressure"

let reasons =
  [| Exit_reason.Cpuid; Exit_reason.Msr_write; Exit_reason.Ept_misconfig;
     Exit_reason.Hlt; Exit_reason.External_interrupt; Exit_reason.Eoi_induced |]

(* Serializing a trap through the shared-memory ring and reading it back
   yields the same command, for arbitrary qualifications; the GPRs in the
   register file land in the entry's bytes as they are. The rings are the
   two pages after the 1 MB of RAM, and the first post to [to_svt] is
   entry 0 of the one whose head then reads 1. *)
let prop_channel_roundtrip =
  QCheck.Test.make ~name:"channel commands survive shared memory" ~count:100
    QCheck.(pair (int_bound 5) (array_of_size (Gen.return 16) int64))
    (fun (ri, regs) ->
      (* a shrunk array leaves the remaining registers zero *)
      let regs = Array.init 16 (fun j -> if j < Array.length regs then regs.(j) else 0L) in
      let machine, aspace, ch = channel_in_aspace () in
      let rf = Smt_core.regfile (Svt_hyp.Machine.core machine 0) in
      List.iteri
        (fun j g -> Svt_arch.Regfile.write rf ~ctx:0 (Svt_arch.Reg.Gpr g) regs.(j))
        Svt_arch.Reg.all_gprs;
      let bd = Breakdown.create () in
      let ok = ref false in
      let reason = reasons.(ri) in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          post_ok ch (Channel.to_svt ch) bd
            (Channel.Vm_trap { seq = 1; reason; qual = regs.(0) });
          match Channel.try_recv ch (Channel.to_svt ch) bd with
          | Some (Channel.Vm_trap r) ->
              ok := r.seq = 1 && r.reason = reason && r.qual = regs.(0)
          | _ -> ok := false);
      Simulator.run (Svt_hyp.Machine.sim machine);
      let module Aspace = Svt_mem.Address_space in
      let ring =
        List.find
          (fun g -> Aspace.read_u32 aspace g = 1)
          (List.map (fun k -> Svt_mem.Addr.Gpa.of_int ((1 lsl 20) + (k * 4096))) [ 0; 1 ])
      in
      let entry = Aspace.read_bytes aspace (Svt_mem.Addr.Gpa.add ring 8) 152 in
      !ok
      && Array.for_all Fun.id
           (Array.mapi (fun j r -> Bytes.get_int64_le entry (24 + (8 * j)) = r) regs))

(* Every command kind reads back as written: sequence number, reason and
   qualification. The register bytes are pinned by test_core's "entry
   bytes". *)
let gen_command =
  let open QCheck.Gen in
  let seq = int in
  frequency
    [
      ( 3,
        map2
          (fun (seq, reason) qual -> Channel.Vm_trap { seq; reason; qual })
          (pair seq (oneofl Exit_reason.all))
          (map Int64.of_int int) );
      (2, map (fun seq -> Channel.Vm_resume { seq }) seq);
      (1, return Channel.Blocked);
    ]

let print_command = function
  | Channel.Vm_trap { seq; reason; qual } ->
      Printf.sprintf "trap seq=%d %s qual=%Ld" seq (Exit_reason.name reason) qual
  | Channel.Vm_resume { seq } -> Printf.sprintf "resume seq=%d" seq
  | Channel.Blocked -> "blocked"
  | Channel.Corrupt n -> Printf.sprintf "corrupt %d" n

let prop_channel_every_kind =
  QCheck.Test.make ~name:"every command kind round trips" ~count:100
    (QCheck.make ~print:(fun cs -> String.concat "; " (List.map print_command cs))
       QCheck.Gen.(list_size (int_range 1 40) gen_command))
    (fun cmds ->
      let machine, ch = make_channel () in
      let bd = Breakdown.create () in
      let ok = ref true in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          (* one at a time, so a long list wraps the 16-entry ring *)
          List.iter
            (fun c ->
              post_ok ch (Channel.to_svt ch) bd c;
              match Channel.try_recv ch (Channel.to_svt ch) bd with
              | Some got -> if got <> c then ok := false
              | None -> ok := false)
            cmds);
      Simulator.run (Svt_hyp.Machine.sim machine);
      !ok)

(* Pipelining many commands through the ring preserves order and count
   (up to the ring capacity). *)
let prop_channel_order =
  QCheck.Test.make ~name:"channel preserves fifo order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 15) (int_bound 1000))
    (fun quals ->
      let machine, ch = make_channel () in
      let bd = Breakdown.create () in
      let got = ref [] in
      Simulator.spawn (Svt_hyp.Machine.sim machine) (fun () ->
          List.iteri
            (fun i q ->
              post_ok ch (Channel.from_svt ch) bd
                (Channel.Vm_trap
                   { seq = i + 1; reason = Exit_reason.Cpuid;
                     qual = Int64.of_int q }))
            quals;
          let rec drain () =
            match Channel.try_recv ch (Channel.from_svt ch) bd with
            | Some (Channel.Vm_trap { qual; _ }) ->
                got := Int64.to_int qual :: !got;
                drain ()
            | Some _ -> drain ()
            | None -> ()
          in
          drain ());
      Simulator.run (Svt_hyp.Machine.sim machine);
      List.rev !got = quals)

(* The SMT core never has two active contexts, whatever sequence of
   trap/resume/activate events it sees. *)
let prop_core_single_active =
  QCheck.Test.make ~name:"at most one active context" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 4))
    (fun ops ->
      let core = Smt_core.create ~id:0 ~n_contexts:3 () in
      Smt_core.load_svt_fields core ~visor:0 ~vm:1;
      (* the model: SVt_current is the last target, and every change of
         target is one switch *)
      let target, changes =
        List.fold_left
          (fun (cur, changes) op ->
            let next =
              match op with
              | 0 -> Smt_core.vm_resume core; 1
              | 1 -> Smt_core.vm_trap core; 0
              | n -> Smt_core.activate core (n - 2); n - 2
            in
            (next, if next <> cur then changes + 1 else changes))
          (0, 0) ops
      in
      Smt_core.current core = target && Smt_core.switches core = changes)

(* The entry transform is incremental: applying it twice with no writes
   in between copies nothing the second time, and vmcs02 equals vmcs12 on
   every non-pointer, non-control field that was written. *)
let prop_transform_incremental =
  QCheck.Test.make ~name:"entry transform is incremental" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 10) (pair (int_bound 3) int64))
    (fun writes ->
      let vmcs12 = Vmcs.create () in
      let vmcs02 = Vmcs.create () in
      let l1_ept = Svt_mem.Ept.create () in
      let fields = [| Field.Guest_rip; Field.Guest_rsp; Field.Guest_cr3;
                      Field.Guest_rflags |] in
      List.iter (fun (fi, v) -> Vmcs.write vmcs12 fields.(fi) v) writes;
      let _ =
        Svt_vmcs.Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L
      in
      let second =
        Svt_vmcs.Transform.entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer:0L
      in
      let copied_match =
        List.for_all
          (fun (fi, _) ->
            Vmcs.peek vmcs02 fields.(fi) = Vmcs.peek vmcs12 fields.(fi))
          writes
      in
      second.Svt_vmcs.Transform.fields_copied = 0 && copied_match)

(* The flat VMCS against a list-based reference with the semantics of the
   original map-backed one: an assoc list whose unset fields read 0, and a
   newest-first dirty list holding each field first written since the last
   clean. The dirty order is part of the contract: the entry transform
   copies, and so validates, fields in that order. *)
type vmcs_op =
  | Write of Field.t * int64
  | Clean
  | Record_exit of Exit_reason.t * int64 * int
  | Read of Field.t

let pp_vmcs_op = function
  | Write (f, v) -> Printf.sprintf "write %s %Ld" (Field.name f) v
  | Clean -> "clean"
  | Record_exit (r, q, l) ->
      Printf.sprintf "record_exit %s %Ld %d" (Exit_reason.name r) q l
  | Read f -> "read " ^ Field.name f

(* Field values over the whole int64 range, with its edges drawn often. *)
let gen_field_value =
  QCheck.Gen.(
    frequency
      [ (1, oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int ]); (3, int64) ])

let gen_vmcs_op =
  let open QCheck.Gen in
  let field = oneofl Field.all in
  frequency
    [
      (6, map2 (fun f v -> Write (f, v)) field gen_field_value);
      (1, return Clean);
      ( 1,
        map3
          (fun r q l -> Record_exit (r, q, l))
          (oneofl Exit_reason.all) gen_field_value (int_bound 15) );
      (2, map (fun f -> Read f) field);
    ]

module Ref_vmcs = struct
  type t = { mutable fields : (Field.t * int64) list; mutable dirty : Field.t list }

  let create () = { fields = []; dirty = [] }
  let read t f = Option.value ~default:0L (List.assoc_opt f t.fields)

  let write t f v =
    t.fields <- (f, v) :: List.remove_assoc f t.fields;
    if not (List.mem f t.dirty) then t.dirty <- f :: t.dirty

  let clean t = t.dirty <- []

  let record_exit t reason q len =
    write t Field.Exit_reason (Int64.of_int (Exit_reason.basic_number reason));
    write t Field.Exit_qualification q;
    write t Field.Instruction_length (Int64.of_int len)
end

let prop_vmcs_matches_reference =
  QCheck.Test.make ~name:"vmcs matches the list reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_vmcs_op ops))
       QCheck.Gen.(list_size (int_range 0 60) gen_vmcs_op))
    (fun ops ->
      let v = Vmcs.create () in
      let r = Ref_vmcs.create () in
      List.for_all
        (fun op ->
          (match op with
          | Write (f, x) ->
              Vmcs.write v f x;
              Ref_vmcs.write r f x
          | Clean ->
              Vmcs.clean v;
              Ref_vmcs.clean r
          | Record_exit (reason, q, len) ->
              Vmcs.record_exit v ~reason ~qualification:q ~instruction_length:len;
              Ref_vmcs.record_exit r reason q len
          | Read f -> ignore (Vmcs.read v f));
          List.for_all (fun f -> Vmcs.read v f = Ref_vmcs.read r f) Field.all
          && Vmcs.dirty_fields v = r.Ref_vmcs.dirty)
        ops)

(* The vmcs12 <-> vmcs02 transforms over the flat VMCS against the
   list-based transforms they replaced, run on [Ref_vmcs]: the same
   dirty fields copied newest first, the same pointer translation
   through the L1 EPT, the same control merge, the same three counts,
   and the same failure on the same field. Pointer fields are written
   with mapped, unmapped, MMIO, null and negative addresses, so one
   entry often holds several invalid pointers and the copy order decides
   which one raises. *)
module Ref_transform = struct
  module Ept = Svt_mem.Ept
  module Addr = Svt_mem.Addr

  let translate_pointer ~l1_ept field v =
    if v = 0L then 0L
    else begin
      let gpa = Addr.Gpa.of_int (Int64.to_int v) in
      match Ept.translate l1_ept ~gpa ~access:Ept.Read with
      | Ok hpa -> Int64.of_int (Addr.Hpa.to_int hpa)
      | Error _ -> raise (Svt_vmcs.Transform.Invalid_pointer (field, v))
    end

  let entry ~vmcs12 ~vmcs02 ~l1_ept ~l0_ept_pointer =
    let copied = ref 0 and translated = ref 0 and merged = ref 0 in
    List.iter
      (fun f ->
        let v = Ref_vmcs.read vmcs12 f in
        let v' =
          if Field.equal f Field.Ept_pointer then begin
            incr translated;
            l0_ept_pointer
          end
          else if Field.is_physical_pointer f then begin
            incr translated;
            translate_pointer ~l1_ept f v
          end
          else if Field.is_control f then begin
            incr merged;
            Int64.logor v Svt_vmcs.Transform.l0_forced_controls
          end
          else v
        in
        Ref_vmcs.write vmcs02 f v';
        incr copied)
      vmcs12.Ref_vmcs.dirty;
    Ref_vmcs.clean vmcs12;
    (!copied, !translated, !merged)

  let exit_fields =
    List.filter (fun f -> Field.is_exit_info f || Field.is_guest_state f) Field.all

  let exit ~vmcs02 ~vmcs12 =
    List.iter (fun f -> Ref_vmcs.write vmcs12 f (Ref_vmcs.read vmcs02 f)) exit_fields;
    Ref_vmcs.clean vmcs02;
    (List.length exit_fields, 0, 0)
end

type transform_op =
  | Write12 of Field.t * int64
  | Write02 of Field.t * int64
  | Entry
  | Exit

let pp_transform_op = function
  | Write12 (f, v) -> Printf.sprintf "vmcs12 %s=%Ld" (Field.name f) v
  | Write02 (f, v) -> Printf.sprintf "vmcs02 %s=%Ld" (Field.name f) v
  | Entry -> "entry"
  | Exit -> "exit"

(* An L1 address space of 16 RAM pages, two allocated pages above them
   and a one-page MMIO region above those. *)
let transform_l1 () =
  let mem = Svt_mem.Phys_mem.create () in
  let alloc = Svt_mem.Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
  let a = Svt_mem.Address_space.create ~mem ~alloc ~ram_bytes:(16 * 4096) in
  ignore (Svt_mem.Address_space.alloc_guest_pages a 2);
  ignore (Svt_mem.Address_space.add_mmio_region a ~name:"bar" ~len:4096);
  Svt_mem.Address_space.ept a

let gen_transform_op =
  let open QCheck.Gen in
  let pointer_fields = List.filter Field.is_physical_pointer Field.all in
  let pointer =
    frequency
      [
        (3, map (fun p -> Int64.of_int ((p * 4096) + 64)) (int_bound 17));
        (1, return (Int64.of_int (18 * 4096))) (* the MMIO page *);
        (1, map (fun p -> Int64.of_int ((19 + p) * 4096)) (int_bound 100))
        (* unmapped *);
        (1, oneofl [ 0L; -1L; Int64.min_int ]);
      ]
  in
  let write12 =
    frequency
      [
        (2, pair (oneofl pointer_fields) pointer);
        (3, pair (oneofl Field.all) gen_field_value);
      ]
  in
  frequency
    [
      (6, map (fun (f, v) -> Write12 (f, v)) write12);
      (2, map2 (fun f v -> Write02 (f, v)) (oneofl Field.all) gen_field_value);
      (2, return Entry);
      (1, return Exit);
    ]

let prop_transform_matches_reference =
  QCheck.Test.make ~name:"transforms match the list-based reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_transform_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_transform_op))
    (fun ops ->
      let l1_ept = transform_l1 () in
      let l0_ept_pointer = 0x7EF0000L in
      let v12 = Vmcs.create () and v02 = Vmcs.create () in
      let r12 = Ref_vmcs.create () and r02 = Ref_vmcs.create () in
      let same v r =
        List.for_all (fun f -> Vmcs.read v f = Ref_vmcs.read r f) Field.all
        && Vmcs.dirty_fields v = r.Ref_vmcs.dirty
      in
      let outcome f =
        match f () with
        | counts -> Ok counts
        | exception Svt_vmcs.Transform.Invalid_pointer (fld, v) ->
            Error (Field.name fld ^ "=" ^ Int64.to_string v)
        | exception Invalid_argument msg -> Error msg
      in
      let counts (r : Svt_vmcs.Transform.result) =
        (r.fields_copied, r.pointers_translated, r.controls_merged)
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Write12 (f, v) ->
                Vmcs.write v12 f v;
                Ref_vmcs.write r12 f v;
                true
            | Write02 (f, v) ->
                Vmcs.write v02 f v;
                Ref_vmcs.write r02 f v;
                true
            | Entry ->
                outcome (fun () ->
                    counts
                      (Svt_vmcs.Transform.entry ~vmcs12:v12 ~vmcs02:v02 ~l1_ept
                         ~l0_ept_pointer))
                = outcome (fun () ->
                      Ref_transform.entry ~vmcs12:r12 ~vmcs02:r02 ~l1_ept
                        ~l0_ept_pointer)
            | Exit ->
                outcome (fun () ->
                    counts (Svt_vmcs.Transform.exit ~vmcs02:v02 ~vmcs12:v12))
                = outcome (fun () -> Ref_transform.exit ~vmcs02:r02 ~vmcs12:r12)
          in
          agree && same v12 r12 && same v02 r02)
        ops)

(* Every virtqueue buffer posted is eventually collectable exactly once,
   and payloads survive the round trip, for arbitrary interleavings of
   post/serve operations. *)
let prop_virtqueue_conservation =
  QCheck.Test.make ~name:"virtqueue conserves buffers and payloads" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) bool)
    (fun ops ->
      let mem = Svt_mem.Phys_mem.create () in
      let alloc =
        Svt_mem.Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24)
      in
      let aspace = Svt_mem.Address_space.create ~mem ~alloc ~ram_bytes:(1 lsl 18) in
      let q = Svt_virtio.Virtqueue.create ~aspace ~size:8 in
      let buf = Svt_mem.Address_space.alloc_guest_pages aspace 1 in
      let posted = ref 0 and served = ref 0 and collected = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i post ->
          if post then (
            Svt_mem.Address_space.write_u32 aspace buf i;
            match
              Svt_virtio.Virtqueue.push_avail q ~addr:buf ~len:4
                ~device_writable:false
            with
            | Some _ -> incr posted
            | None -> () (* ring full is a legal outcome *))
          else
            match Svt_virtio.Virtqueue.pop_avail q with
            | Some (id, addr, len, _) ->
                if Svt_mem.Addr.Gpa.to_int addr <> Svt_mem.Addr.Gpa.to_int buf
                then ok := false;
                Svt_virtio.Virtqueue.push_used q ~id ~len;
                incr served;
                (match Svt_virtio.Virtqueue.pop_used q with
                | Some _ -> incr collected
                | None -> ok := false)
            | None -> ())
        ops;
      !ok && !served <= !posted && !collected = !served)

(* Fabric deliveries arrive in send order with non-decreasing times. *)
let prop_fabric_ordering =
  QCheck.Test.make ~name:"fabric preserves packet order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 2000))
    (fun sizes ->
      let sim = Simulator.create () in
      let f = Svt_virtio.Fabric.create sim ~cost:Svt_arch.Cost_model.paper_machine in
      let got = ref [] in
      Svt_virtio.Fabric.on_deliver (Svt_virtio.Fabric.endpoint_b f) (fun pkt ->
          got := String.length pkt :: !got);
      List.iter
        (fun n ->
          Svt_virtio.Fabric.send f ~from:(Svt_virtio.Fabric.endpoint_a f)
            (String.make n 'x'))
        sizes;
      Simulator.run sim;
      List.rev !got = sizes)

(* --- The TX data path, driver to wire ---------------------------------------- *)

(* One step of a TX payload sequence, each made from the payload before
   it, so that runs of equal payloads and near misses are common: the
   vhost worker sends a payload equal to the previous one as the same
   string, and must never do so for one that differs. *)
type tx_step =
  | Fresh of int * int (* length, pattern seed *)
  | Repeat
  | Flip_first
  | Flip_last
  | Flip_at of int (* one byte, at this index modulo the length *)

let print_tx_step = function
  | Fresh (n, seed) -> Printf.sprintf "fresh(%d,%d)" n seed
  | Repeat -> "repeat"
  | Flip_first -> "flip-first"
  | Flip_last -> "flip-last"
  | Flip_at i -> Printf.sprintf "flip-at(%d)" i

(* Lengths from 0 to a full 16 KB TX buffer, with the page edges common. *)
let gen_tx_len =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; 1; 4095; 4096; 4097; 8192; 12289; 16383; 16384 ]);
        (2, int_range 0 16384);
      ])

(* A step, and whether the driver kicks and lets the device drain after
   it (so descriptors complete and their buffers are rewritten). *)
let gen_tx_script =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (pair
         (frequency
            [
              (2, map2 (fun n seed -> Fresh (n, seed)) gen_tx_len nat);
              (4, return Repeat);
              (1, return Flip_first);
              (1, return Flip_last);
              (2, map (fun i -> Flip_at i) nat);
            ])
         (frequency [ (1, return true); (4, return false) ])))

(* Non-periodic bytes, so that payloads of one length differ on every
   page unless a step says otherwise. *)
let tx_pattern n seed =
  String.init n (fun i -> Char.chr ((seed + (i * 131) + (i / 251)) land 255))

let flip_byte s i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5A) else c) s

let tx_payloads script =
  let next prev = function
    | Fresh (n, seed) -> tx_pattern n seed
    | Repeat -> prev
    | (Flip_first | Flip_last | Flip_at _) when prev = "" -> prev
    | Flip_first -> flip_byte prev 0
    | Flip_last -> flip_byte prev (String.length prev - 1)
    | Flip_at i -> flip_byte prev (i mod String.length prev)
  in
  List.rev
    (snd
       (List.fold_left
          (fun (prev, acc) (step, _) ->
            let p = next prev step in
            (p, p :: acc))
          ("", []) script))

(* Every payload the guest driver transmits comes out of the fabric at
   the client byte for byte, in order. *)
let prop_tx_roundtrip =
  QCheck.Test.make ~name:"tx payloads reach the wire intact and in order"
    ~count:40
    (QCheck.make
       ~print:(fun script ->
         String.concat " "
           (List.map
              (fun (step, kick) -> print_tx_step step ^ if kick then "!" else "")
              script))
       gen_tx_script)
    (fun script ->
      let machine = Svt_hyp.Machine.create () in
      let vm =
        Svt_hyp.Vm.create ~machine ~name:"guest" ~level:1 ~ram_bytes:(1 lsl 20)
          ~cpuid:(Svt_arch.Cpuid_db.host ())
      in
      let sim = Svt_hyp.Machine.sim machine in
      let net = Svt_virtio.Virtio_net.create ~machine ~vm ~name:"n0" in
      let f = Svt_virtio.Fabric.create sim ~cost:Svt_arch.Cost_model.paper_machine in
      Svt_virtio.Virtio_net.set_tx_sink net (fun pkt ->
          Svt_virtio.Fabric.send f ~from:(Svt_virtio.Fabric.endpoint_a f) pkt);
      let got = ref [] in
      Svt_virtio.Fabric.on_deliver (Svt_virtio.Fabric.endpoint_b f) (fun pkt ->
          got := pkt :: !got);
      Svt_virtio.Virtio_net.start_backend net;
      let drain () =
        if Svt_virtio.Virtio_net.need_kick net then
          ignore
            (Svt_hyp.Vm.handle_mmio vm (Svt_virtio.Virtio_net.doorbell_gpa net) 1L 4);
        Simulator.run sim
      in
      let payloads = tx_payloads script in
      List.iteri
        (fun i (p, (_, kick)) ->
          if not (Svt_virtio.Virtio_net.driver_transmit net (Bytes.of_string p))
          then failwith "TX ring full";
          (* at most 64 packets in flight, well inside the 256-entry ring *)
          if kick || i mod 64 = 63 then drain ())
        (List.combine payloads script);
      drain ();
      List.rev !got = payloads)

(* Guest cpuid views only ever remove feature bits, never invent them
   (except the architected hypervisor-present bit). *)
let prop_cpuid_view_monotone =
  QCheck.Test.make ~name:"guest cpuid views only mask features" ~count:50
    QCheck.bool
    (fun expose_vmx ->
      let host = Svt_arch.Cpuid_db.host () in
      let view = Svt_arch.Cpuid_db.guest_view host ~expose_vmx in
      let h = Svt_arch.Cpuid_db.query host ~leaf:1 ~subleaf:0 in
      let g = Svt_arch.Cpuid_db.query view ~leaf:1 ~subleaf:0 in
      let hv = Int64.shift_left 1L 31 (* the hypervisor-present bit *) in
      let added =
        Int64.logand (Int64.logand g.Svt_arch.Cpuid_db.ecx (Int64.lognot h.Svt_arch.Cpuid_db.ecx))
          (Int64.lognot hv)
      in
      added = 0L && g.Svt_arch.Cpuid_db.edx = h.Svt_arch.Cpuid_db.edx)

(* --- The engine against a reference scheduler ----------------------------- *)

(* A random process script. Spans are small so that equal-time ties
   between processes, timers and wake-ups are common. One mailbox has at
   most one reader, as every mailbox in lib/ does: only one top-level
   script receives, and none of its children. *)
type op =
  | Delay of int
  | Spawn of op list
  | Wait of int (* signal *)
  | Wait_any (* on both signals *)
  | Wait_timeout of int * int (* signal, span *)
  | Broadcast of int
  | Timer of int (* a plain callback this far ahead *)
  | Cancel_timer (* the process's latest timer, fired or not *)
  | Send of int (* this many items, in one instant *)
  | Post of int * int (* a plain callback this far ahead sends this many *)
  | Recv (* the reader only *)
  | Drain (* the reader only: [try_recv] until empty *)

type scenario = {
  scripts : op list list; (* spawned in order at time 0 *)
  slices : int list; (* [run ~until] limits, then one unbounded [run] *)
  budget : int;
  observed : bool; (* with a dispatch observer installed *)
}

let n_signals = 2

let rec pp_op = function
  | Delay d -> Printf.sprintf "delay %d" d
  | Spawn ops -> "spawn [" ^ String.concat "; " (List.map pp_op ops) ^ "]"
  | Wait s -> Printf.sprintf "wait s%d" s
  | Wait_any -> "wait-any"
  | Wait_timeout (s, d) -> Printf.sprintf "wait s%d %d" s d
  | Broadcast s -> Printf.sprintf "broadcast s%d" s
  | Timer d -> Printf.sprintf "timer %d" d
  | Cancel_timer -> "cancel"
  | Send n -> Printf.sprintf "send %d" n
  | Post (d, n) -> Printf.sprintf "post %d %d" d n
  | Recv -> "recv"
  | Drain -> "drain"

let pp_scenario sc =
  Printf.sprintf "budget %d%s, slices [%s]\n%s" sc.budget
    (if sc.observed then " observed" else "")
    (String.concat "; " (List.map string_of_int sc.slices))
    (String.concat "\n"
       (List.map
          (fun ops -> "  [" ^ String.concat "; " (List.map pp_op ops) ^ "]")
          sc.scripts))

let gen_scenario =
  let open QCheck.Gen in
  let span = frequency [ (3, int_range 0 3); (1, int_range 4 12) ] in
  let rec gen_op ~reader depth =
    frequency
      ([
         (6, map (fun d -> Delay d) span);
         (1, map (fun s -> Wait s) (int_bound (n_signals - 1)));
         (1, return Wait_any);
         ( 2,
           map2
             (fun s d -> Wait_timeout (s, d))
             (int_bound (n_signals - 1))
             span );
         (2, map (fun s -> Broadcast s) (int_bound (n_signals - 1)));
         (2, map (fun d -> Timer d) span);
         (1, return Cancel_timer);
         (2, map (fun n -> Send n) (int_range 1 3));
         (1, map2 (fun d n -> Post (d, n)) span (int_range 1 3));
       ]
      @ (if reader then [ (3, return Recv); (1, return Drain) ] else [])
      @
      if depth > 0 then
        [
          ( 1,
            map
              (fun ops -> Spawn ops)
              (list_size (int_bound 4) (gen_op ~reader:false (depth - 1))) );
        ]
      else [])
  in
  let script ~reader = list_size (int_bound 8) (gen_op ~reader 2) in
  let* others = list_size (int_range 0 3) (script ~reader:false) in
  let* reader = script ~reader:true in
  let* at = int_bound (List.length others) in
  let scripts =
    List.filteri (fun i _ -> i < at) others
    @ (reader :: List.filteri (fun i _ -> i >= at) others)
  in
  let* gaps = list_size (int_bound 4) (int_bound 15) in
  let slices =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) d -> (t + d, (t + d) :: acc))
            (0, []) gaps))
  in
  let* budget = frequency [ (1, int_range 1 12); (1, return 1_000_000) ] in
  let+ observed = bool in
  { scripts; slices; budget; observed }

(* What a run shows: one entry per finished step, [(now, pid, step,
   value)] with pid -1 for a timer or post firing (a received item is
   its step's value); then [(now, events)] after each slice; then the
   budget exhaustion, if any. *)
type trace = {
  steps : (int * int * int * int) list;
  slice_ends : (int * int) list;
  exhausted : (int * int * int) option;
}

(* The reference: the engine's semantics spelled out over a sorted list
   of pending events, with processes written in continuation-passing
   style. Every wake-up goes through the list. A wait that can be woken
   more than once (by either signal, or by its signal or its timer) is
   settled by the first; the others stay listed and each costs an event
   that does nothing. The mailbox holds numbered items and at most one
   blocked reader: a send wakes it by one event at the send's instant,
   and a send with no reader blocked schedules nothing. *)
let reference sc =
  let now = ref 0 and events = ref 0 and seq = ref 0 in
  let pending = ref [] in
  let add time run =
    let h = !seq in
    incr seq;
    pending :=
      List.merge
        (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
        !pending [ (time, h, run) ];
    h
  in
  let cancel h = pending := List.filter (fun (_, s, _) -> s <> h) !pending in
  let steps = ref [] and pids = ref 0 and timers = ref 0 in
  let signals = Array.make n_signals [] in
  let items = Queue.create () and reader = ref None and sent = ref 0 in
  let send n =
    for _ = 1 to n do
      incr sent;
      Queue.push !sent items;
      Option.iter
        (fun wake ->
          reader := None;
          ignore (add !now wake))
        !reader
    done
  in
  let rec spawn ops =
    let pid = !pids in
    incr pids;
    ignore (add !now (fun () -> exec pid (ref None) 0 ops))
  and exec pid last_timer step = function
    | [] -> ()
    | op :: rest -> (
        let next v =
          steps := (!now, pid, step, v) :: !steps;
          exec pid last_timer (step + 1) rest
        in
        match op with
        | Delay 0 -> next 0
        | Delay d -> ignore (add (!now + d) (fun () -> next 0))
        | Spawn ops ->
            spawn ops;
            next 0
        | Wait s -> signals.(s) <- signals.(s) @ [ (fun () -> next 4) ]
        | Wait_any ->
            let settled = ref false in
            let wake () =
              if not !settled then begin
                settled := true;
                next 5
              end
            in
            Array.iteri (fun s ws -> signals.(s) <- ws @ [ wake ]) signals
        | Wait_timeout (s, d) ->
            let settled = ref false in
            let h =
              add (!now + d) (fun () ->
                  if not !settled then begin
                    settled := true;
                    next 1
                  end)
            in
            signals.(s) <-
              signals.(s)
              @ [
                  (fun () ->
                    if not !settled then begin
                      settled := true;
                      cancel h;
                      next 2
                    end);
                ]
        | Broadcast s ->
            let waiters = signals.(s) in
            signals.(s) <- [];
            List.iter (fun w -> ignore (add !now w)) waiters;
            next 0
        | Timer d ->
            let id = !timers in
            incr timers;
            last_timer :=
              Some
                (add (!now + d) (fun () ->
                     steps := (!now, -1, id, 3) :: !steps));
            next 0
        | Cancel_timer ->
            Option.iter cancel !last_timer;
            next 0
        | Send n ->
            send n;
            next 0
        | Post (d, n) ->
            let id = !timers in
            incr timers;
            last_timer :=
              Some
                (add (!now + d) (fun () ->
                     steps := (!now, -1, id, 6) :: !steps;
                     send n));
            next 0
        | Recv ->
            let rec recv () =
              if Queue.is_empty items then reader := Some recv
              else next (Queue.pop items)
            in
            recv ()
        | Drain ->
            let rec drain acc =
              if Queue.is_empty items then next (Hashtbl.hash (List.rev acc))
              else drain (Queue.pop items :: acc)
            in
            drain [])
  in
  List.iter spawn sc.scripts;
  let exception Exhausted of int * int * int in
  (* [run ~until] when [until] is given, a plain [run] otherwise *)
  let run until =
    let limit = Option.value until ~default:max_int in
    let rec loop () =
      match !pending with
      | (time, _, run) :: rest when time <= limit ->
          if !events >= sc.budget then
            raise (Exhausted (!events, !now, sc.budget));
          pending := rest;
          now := time;
          incr events;
          run ();
          loop ()
      | _ -> ()
    in
    loop ();
    match until with
    | Some until when !now < until && !pending = [] -> now := until
    | _ -> ()
  in
  let slice_ends = ref [] in
  let exhausted =
    match
      List.iter
        (fun until ->
          run until;
          slice_ends := (!now, !events) :: !slice_ends)
        (List.map Option.some sc.slices @ [ None ])
    with
    | () -> None
    | exception Exhausted (e, n, m) -> Some (e, n, m)
  in
  { steps = List.rev !steps; slice_ends = List.rev !slice_ends; exhausted }

let engine sc =
  let sim = Simulator.create () in
  Simulator.set_budget ~max_events:sc.budget sim;
  let starts = ref 0 and ends = ref 0 in
  if sc.observed then
    Simulator.set_observer sim
      (Some
         {
           Simulator.on_event_start = (fun () -> incr starts);
           on_event_end = (fun () -> incr ends);
         });
  let steps = ref [] and pids = ref 0 and timers = ref 0 in
  let signals = Array.init n_signals (fun _ -> Simulator.Signal.create sim) in
  let mailbox = Simulator.Mailbox.create sim and sent = ref 0 in
  let send n =
    for _ = 1 to n do
      incr sent;
      Simulator.Mailbox.send mailbox !sent
    done
  in
  let rec body pid ops () =
    let last_timer = ref None in
    List.iteri
      (fun step op ->
        let v =
          match op with
          | Delay d ->
              Simulator.Proc.delay d;
              0
          | Spawn ops ->
              let child = !pids in
              incr pids;
              Simulator.spawn (Simulator.Proc.sim ()) (body child ops);
              0
          | Wait s ->
              Simulator.Signal.wait signals.(s);
              4
          | Wait_any ->
              Simulator.Signal.wait_any (Array.to_list signals);
              5
          | Wait_timeout (s, d) -> (
              match Simulator.Signal.wait_timeout signals.(s) d with
              | `Timeout -> 1
              | `Signaled -> 2)
          | Broadcast s ->
              Simulator.Signal.broadcast signals.(s);
              0
          | Timer d ->
              let id = !timers in
              incr timers;
              last_timer :=
                Some
                  (Simulator.schedule sim ~after:d (fun () ->
                       steps := (Simulator.now sim, -1, id, 3) :: !steps));
              0
          | Cancel_timer ->
              Option.iter (Simulator.cancel sim) !last_timer;
              0
          | Send n ->
              send n;
              0
          | Post (d, n) ->
              let id = !timers in
              incr timers;
              last_timer :=
                Some
                  (Simulator.schedule sim ~after:d (fun () ->
                       steps := (Simulator.now sim, -1, id, 6) :: !steps;
                       send n));
              0
          | Recv -> Simulator.Mailbox.recv mailbox
          | Drain ->
              let rec drain acc =
                match Simulator.Mailbox.try_recv mailbox with
                | Some v -> drain (v :: acc)
                | None -> Hashtbl.hash (List.rev acc)
              in
              drain []
        in
        steps := (Simulator.Proc.now (), pid, step, v) :: !steps)
      ops
  in
  List.iter
    (fun ops ->
      let pid = !pids in
      incr pids;
      Simulator.spawn sim (body pid ops))
    sc.scripts;
  let slice_ends = ref [] in
  let exhausted =
    match
      List.iter
        (fun until ->
          (match until with
          | Some until -> Simulator.run ~until sim
          | None -> Simulator.run sim);
          slice_ends :=
            (Simulator.now sim, Simulator.events_processed sim) :: !slice_ends)
        (List.map Option.some sc.slices @ [ None ])
    with
    | () -> None
    | exception Simulator.Budget_exhausted { events; now; max_events } ->
        Some (events, now, max_events)
  in
  let events = Simulator.events_processed sim in
  let pops = (Simulator.queue_stats sim).Svt_engine.Event_queue.pops in
  let accounted =
    pops + Simulator.delays_in_place sim = events
    && ((not sc.observed) || (!starts = events && !ends = events))
  in
  ( { steps = List.rev !steps; slice_ends = List.rev !slice_ends; exhausted },
    accounted )

(* Taking a delay in place and parking a waiter's continuation must be
   invisible: the same steps at the same instants in the same order, the
   same clock and event count after every slice (a losing registration's
   no-op event included), the same budget exhaustion. A mailbox's reader
   receives the same items at the same instants, and its wake-ups cost
   the same events. Every event is either popped or taken in place, and
   the dispatch hooks fire once per event. *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches the reference scheduler" ~count:500
    (QCheck.make ~print:pp_scenario gen_scenario)
    (fun sc ->
      let got, accounted = engine sc in
      accounted && got = reference sc)

(* --- one exit count -------------------------------------------------------- *)

(* An L2 guest program: trapping instructions, a vector injected into L2
   through its LAPIC, and an interrupt for L1 landing on the vCPU. *)
type l2_op = Cpuid | Wrmsr | Io_write | Vector | Host_event

let pp_l2_op = function
  | Cpuid -> "cpuid"
  | Wrmsr -> "wrmsr"
  | Io_write -> "io-write"
  | Vector -> "vector"
  | Host_event -> "host-event"

let run_l2_op v = function
  | Cpuid -> ignore (Svt_core.Guest.cpuid v ~leaf:1)
  | Wrmsr -> Svt_core.Guest.wrmsr v Svt_arch.Msr.Ia32_tsc_deadline 0L
  | Io_write -> Svt_core.Guest.io_write v ~port:0x80 1
  | Vector ->
      Svt_interrupt.Lapic.raise_vector (Svt_hyp.Vcpu.lapic v) 0x41;
      Svt_core.Guest.compute_us v 5.0
  | Host_event ->
      Svt_hyp.Vcpu.enqueue_host_event v ~vector:0x31 ignore;
      Svt_core.Guest.compute_us v 5.0

(* The scheduler reads an L2 stack's exit count from the vCPUs'
   breakdowns; the benchmark sums the [l2_exit.<REASON>] counters. Both
   must count every exit of any program under every mode, once. *)
let prop_one_exit_count =
  let modes = Array.of_list Mode.all in
  let gen =
    QCheck.Gen.(
      triple
        (int_bound (Array.length modes - 1))
        (int_range 1 2)
        (list_size (int_range 1 10)
           (oneofl [ Cpuid; Wrmsr; Io_write; Vector; Host_event ])))
  in
  let print (m, n, ops) =
    Printf.sprintf "%s vcpus=%d [%s]" (Mode.to_string modes.(m)) n
      (String.concat "; " (List.map pp_l2_op ops))
  in
  QCheck.Test.make ~name:"breakdown exits = l2_exit counters" ~count:100
    (QCheck.make ~print gen)
    (fun (m, n_vcpus, ops) ->
      let sys =
        Svt_core.System.of_config
          (Svt_core.System.Config.make ~mode:modes.(m) ~n_vcpus
             ~level:Svt_core.System.L2_nested ())
      in
      for i = 0 to n_vcpus - 1 do
        Svt_hyp.Vcpu.spawn_program (Svt_core.System.vcpu sys i) (fun v ->
            List.iter (run_l2_op v) ops)
      done;
      Svt_core.System.run sys;
      let exits = ref 0 in
      for i = 0 to n_vcpus - 1 do
        let bd = Svt_hyp.Vcpu.breakdown (Svt_core.System.vcpu sys i) in
        exits := !exits + Breakdown.exits bd
      done;
      let counted =
        List.fold_left
          (fun acc (k, c) ->
            if String.starts_with ~prefix:"l2_exit." k then acc + c else acc)
          0
          (Svt_stats.Metrics.counters (Svt_core.System.metrics sys))
      in
      let traps =
        List.length
          (List.filter
             (function Cpuid | Wrmsr | Io_write -> true | _ -> false)
             ops)
      in
      !exits = counted && !exits >= n_vcpus * traps)

let () =
  Alcotest.run "properties"
    [
      ( "protocol-data-paths",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_channel_roundtrip;
            prop_channel_every_kind;
            prop_channel_order;
            prop_core_single_active;
            prop_transform_incremental;
            prop_vmcs_matches_reference;
            prop_transform_matches_reference;
            prop_virtqueue_conservation;
            prop_fabric_ordering;
            prop_tx_roundtrip;
            prop_cpuid_view_monotone;
            prop_one_exit_count;
          ] );
      ("engine", [ QCheck_alcotest.to_alcotest prop_engine_matches_reference ]);
    ]
