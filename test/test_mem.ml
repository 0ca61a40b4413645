(* Tests for the memory substrate: typed addresses, sparse physical
   memory, the frame allocator, the 4-level EPT (mapping, permissions,
   misconfiguration, invalidation) and the guest address space. *)

module Addr = Svt_mem.Addr
module Phys_mem = Svt_mem.Phys_mem
module Frame_alloc = Svt_mem.Frame_alloc
module Ept = Svt_mem.Ept
module Aspace = Svt_mem.Address_space

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Addr ---------------------------------------------------------------- *)

let test_addr_pages () =
  let a = Addr.Gpa.of_int 0x2345 in
  checki "page" 2 (Addr.Gpa.page_of a);
  checki "offset" 0x345 (Addr.Gpa.offset a);
  checkb "aligned check" false (Addr.Gpa.is_page_aligned a);
  checki "align down" 0x2000 (Addr.Gpa.to_int (Addr.Gpa.align_down a))

let test_addr_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "gpa: negative address")
    (fun () -> ignore (Addr.Gpa.of_int (-1)))

(* --- Phys_mem ------------------------------------------------------------ *)

let test_phys_mem_rw_widths () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int 0x1000 in
  Phys_mem.write_from m a (Bytes.make 1 '\xAB') ~off:0 ~len:1;
  checki "u8" 0xAB (Phys_mem.read_u8 m a);
  Phys_mem.write_u16 m (Addr.Hpa.add a 2) 0xBEEF;
  checki "u16" 0xBEEF (Phys_mem.read_u16 m (Addr.Hpa.add a 2));
  Phys_mem.write_u32 m (Addr.Hpa.add a 4) 0xDEAD10CC;
  checki "u32" 0xDEAD10CC (Phys_mem.read_u32 m (Addr.Hpa.add a 4));
  Phys_mem.write_u64 m (Addr.Hpa.add a 8) 0x0123456789ABCDEF;
  checki "u64" 0x0123456789ABCDEF (Phys_mem.read_u64 m (Addr.Hpa.add a 8));
  Phys_mem.write_u64 m (Addr.Hpa.add a 16) (-2);
  checki "u64 sign-extends" 0xFE (Phys_mem.read_u8 m (Addr.Hpa.add a 16));
  checki "u64 top byte" 0xFF (Phys_mem.read_u8 m (Addr.Hpa.add a 23));
  checki "u64 back" (-2) (Phys_mem.read_u64 m (Addr.Hpa.add a 16))

let test_phys_mem_page_crossing () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int (0x2000 - 4) in
  Phys_mem.write_u64 m a 0x1122334455667788;
  checki "crosses page" 0x1122334455667788 (Phys_mem.read_u64 m a)

let test_phys_mem_bytes_roundtrip () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int 0x3FF0 in
  let data = Bytes.of_string "the quick brown fox crosses a page boundary!" in
  let len = Bytes.length data in
  Phys_mem.write_from m a data ~off:0 ~len;
  let out = Bytes.make (len + 4) '*' in
  Phys_mem.read_into m a out ~off:2 ~len;
  Alcotest.(check string) "round trip at an offset"
    ("**" ^ Bytes.to_string data ^ "**") (Bytes.to_string out);
  checki "both pages resident" 2 (Phys_mem.resident_pages m);
  (* a sub-range of the caller's buffer *)
  Phys_mem.write_from m (Addr.Hpa.of_int 0x8000) data ~off:4 ~len:5;
  let q = Bytes.create 5 in
  Phys_mem.read_into m (Addr.Hpa.of_int 0x8000) q ~off:0 ~len:5;
  Alcotest.(check string) "sub-range" "quick" (Bytes.to_string q)

let test_phys_mem_range_bounds () =
  let m = Phys_mem.create () in
  let buf = Bytes.create 8 in
  Alcotest.check_raises "past end" (Invalid_argument "Phys_mem.read_into")
    (fun () -> Phys_mem.read_into m (Addr.Hpa.of_int 0) buf ~off:4 ~len:5);
  Alcotest.check_raises "negative len" (Invalid_argument "Phys_mem.write_from")
    (fun () -> Phys_mem.write_from m (Addr.Hpa.of_int 0) buf ~off:0 ~len:(-1));
  checki "nothing touched" 0 (Phys_mem.resident_pages m)

(* Narrow accessors touch exactly their own bytes: a u32/u16 read at the
   end of a page must not materialize the next one. *)
let test_phys_mem_no_over_read () =
  let m = Phys_mem.create () in
  checki "u32 at page end" 0 (Phys_mem.read_u32 m (Addr.Hpa.of_int 0x1FFC));
  checki "u16 at page end" 0 (Phys_mem.read_u16 m (Addr.Hpa.of_int 0x1FFE));
  checki "one page resident" 1 (Phys_mem.resident_pages m)

let test_phys_mem_narrow_crossing () =
  let m = Phys_mem.create () in
  Phys_mem.write_u32 m (Addr.Hpa.of_int 0x1FFE) 0xCAFEF00D;
  checki "u32 crosses" 0xCAFEF00D (Phys_mem.read_u32 m (Addr.Hpa.of_int 0x1FFE));
  Phys_mem.write_u16 m (Addr.Hpa.of_int 0x2FFF) 0x1BEEF;
  checki "u16 crosses, truncated" 0xBEEF
    (Phys_mem.read_u16 m (Addr.Hpa.of_int 0x2FFF));
  checki "little-endian low byte" 0xEF (Phys_mem.read_u8 m (Addr.Hpa.of_int 0x2FFF));
  checki "high byte on next page" 0xBE (Phys_mem.read_u8 m (Addr.Hpa.of_int 0x3000))

let test_phys_mem_sparse () =
  let m = Phys_mem.create () in
  checki "untouched" 0 (Phys_mem.resident_pages m);
  ignore (Phys_mem.read_u8 m (Addr.Hpa.of_int 0x5000));
  checki "materialized on touch" 1 (Phys_mem.resident_pages m);
  checki "zero fill" 0 (Phys_mem.read_u8 m (Addr.Hpa.of_int 0x5001))

(* Pages are found through a directory of 512-page chunks that grows to
   the highest page touched: far-apart frames, the two ends of a chunk
   and a frame below earlier ones all keep their own contents. *)
let test_phys_mem_frame_directory () =
  let m = Phys_mem.create () in
  let addrs =
    [ 1 lsl 30; (1 lsl 30) + (511 * 4096); (1 lsl 30) + (512 * 4096);
      (129 lsl 30) - 8; 0x3000 ]
  in
  List.iteri (fun i a -> Phys_mem.write_u64 m (Addr.Hpa.of_int a) (i + 1)) addrs;
  List.iteri
    (fun i a -> checki (Printf.sprintf "word %d" i) (i + 1) (Phys_mem.read_u64 m (Addr.Hpa.of_int a)))
    addrs;
  checki "one page each" 5 (Phys_mem.resident_pages m);
  checki "a neighbour stays zero" 0 (Phys_mem.read_u8 m (Addr.Hpa.of_int ((1 lsl 30) + 4096)));
  checki "and is now resident" 6 (Phys_mem.resident_pages m)

(* Phys_mem against a Hashtbl model, over the pages that move the
   directory and its chunks: page 0, the 1 GB base where RAM frames
   start, the last page of the base's 2 MB chunk, 128 GB, and pages
   below a higher one touched first (a chunk below the directory's
   first, and a low slot of a chunk grown for a high one). *)
let test_phys_mem_model () =
  let m = Phys_mem.create () in
  let model = Hashtbl.create 16 in
  let base = 1 lsl 30 in
  let pages =
    [ base; base + (2 lsl 20) - 4096; 128 lsl 30; 0; base + 4096;
      base - 4096; base + (2 lsl 20); 0x3000; (128 lsl 30) - (2 lsl 20) ]
  in
  List.iteri
    (fun i a ->
      let hpa = Addr.Hpa.of_int (a + (8 * i)) in
      Phys_mem.write_u64 m hpa (i + 1);
      Hashtbl.replace model a (i + 1);
      (* every page touched so far still holds its word *)
      Hashtbl.iter
        (fun a' _ ->
          let j = Option.get (List.find_index (( = ) a') pages) in
          checki
            (Printf.sprintf "page %#x after touching %#x" a' a)
            (Hashtbl.find model a')
            (Phys_mem.read_u64 m (Addr.Hpa.of_int (a' + (8 * j)))))
        model;
      checki "resident" (Hashtbl.length model) (Phys_mem.resident_pages m))
    pages;
  checki "an untouched neighbour reads zero" 0
    (Phys_mem.read_u64 m (Addr.Hpa.of_int (base + 8192)))

(* The first page at the 1 GB base puts only its own 4 KB (514 words
   with its header and padding) straight on the major heap: the
   directory and the chunk start small enough for the minor heap. A
   513-slot directory and a 512-slot chunk read 1,541 words. Direct major
   words are major minus promoted words, read after a minor collection
   on each side. *)
let test_phys_mem_first_touch_heap () =
  let direct_major () =
    Gc.minor ();
    let g = Gc.quick_stat () in
    g.Gc.major_words -. g.Gc.promoted_words
  in
  let before = direct_major () in
  let m = Phys_mem.create () in
  Phys_mem.write_u64 m (Addr.Hpa.of_int (1 lsl 30)) 1;
  let words = direct_major () -. before in
  ignore (Sys.opaque_identity m);
  checkb
    (Printf.sprintf "first touch puts %.0f words on the major heap (at most 520)"
       words)
    true (words <= 520.)

(* --- Frame_alloc ---------------------------------------------------------- *)

let test_frame_alloc_distinct_aligned () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(64 * 4096) in
  let f1 = Frame_alloc.alloc a 1 and f2 = Frame_alloc.alloc a 1 in
  checkb "aligned" true (Addr.Hpa.is_page_aligned f1);
  checkb "distinct" true (f1 <> f2)

(* A run of n frames is what n one-frame calls would hand out. *)
let test_frame_alloc_runs () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(64 * 4096) in
  let run = Frame_alloc.alloc a 5 in
  checki "first frame" 0x10000 (Addr.Hpa.to_int run);
  checki "next frame follows the run" (0x10000 + (5 * 4096))
    (Addr.Hpa.to_int (Frame_alloc.alloc a 1))

let test_frame_alloc_exhaustion () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(3 * 4096) in
  ignore (Frame_alloc.alloc a 1);
  Alcotest.check_raises "oom" (Failure "Frame_alloc: out of memory") (fun () ->
      ignore (Frame_alloc.alloc a 3));
  (* a run that does not fit takes nothing *)
  ignore (Frame_alloc.alloc a 2);
  Alcotest.check_raises "oom" (Failure "Frame_alloc: out of memory") (fun () ->
      ignore (Frame_alloc.alloc a 1))

(* --- EPT ------------------------------------------------------------------ *)

let gpa = Addr.Gpa.of_int
let hpa = Addr.Hpa.of_int

let test_ept_map_translate () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.rwx;
  (match Ept.translate e ~gpa:(gpa 0x4123) ~access:Ept.Read with
  | Ok h -> checki "offset preserved" 0x88123 (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "should translate");
  checki "mapped count" 1 (Ept.mapped_pages e)

let test_ept_violation_unmapped () =
  let e = Ept.create () in
  match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Read with
  | Error (Ept.Violation _) -> ()
  | _ -> Alcotest.fail "expected violation"

let test_ept_write_protection () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.ro;
  (match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read allowed");
  match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Write with
  | Error (Ept.Violation _) -> ()
  | _ -> Alcotest.fail "write must fault"

let test_ept_misconfig_marker () =
  let e = Ept.create () in
  Ept.mark_misconfig e ~gpa:(gpa 0x6000) ~tag:"virtio-doorbell";
  match Ept.translate e ~gpa:(gpa 0x6010) ~access:Ept.Write with
  | Error (Ept.Misconfiguration { tag; _ }) ->
      Alcotest.(check string) "tag" "virtio-doorbell" tag
  | _ -> Alcotest.fail "expected misconfig"

let test_ept_unmap () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.rwx;
  Ept.unmap e ~gpa:(gpa 0x4000);
  checki "count back to zero" 0 (Ept.mapped_pages e);
  match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Read with
  | Error (Ept.Violation _) -> ()
  | _ -> Alcotest.fail "unmapped must fault"

let test_ept_sparse_high_addresses () =
  let e = Ept.create () in
  (* exercise all four radix levels *)
  let high = gpa (0x1F_FFFF_F000 land lnot 0xFFF) in
  Ept.map e ~gpa:high ~hpa:(hpa 0x7000) ~perm:Ept.rwx;
  match Ept.translate e ~gpa:high ~access:Ept.Exec with
  | Ok h -> checki "high mapping" 0x7000 (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "high address should map"

let test_ept_map_range () =
  let e = Ept.create () in
  Ept.map_range e ~gpa:(gpa 0) ~len:(3 * 4096) ~perm:Ept.rwx ~hpa:(hpa 0x100000);
  checki "three pages" 3 (Ept.mapped_pages e);
  match Ept.translate e ~gpa:(gpa 0x2ABC) ~access:Ept.Read with
  | Ok h -> checki "third page" 0x102ABC (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "range should map"

let prop_ept_translate_preserves_offset =
  QCheck.Test.make ~name:"translation preserves page offset" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 4095))
    (fun (page, off) ->
      let e = Ept.create () in
      let g = gpa (page * 4096) in
      Ept.map e ~gpa:g ~hpa:(hpa 0x40000000) ~perm:Ept.rwx;
      match Ept.translate e ~gpa:(Addr.Gpa.add g off) ~access:Ept.Read with
      | Ok h -> Addr.Hpa.offset h = off
      | Error _ -> false)

(* Model-based check: random map / map_range / mark_misconfig / unmap
   sequences against an association from guest page to entry (kept in a
   hash table, so 1,024-page blocks stay cheap).
   Pages cluster at leaf-table edges, around 512 GB and at the top of the
   48-bit space (where ranges wrap); frames reach 129 GB. [map_range]
   takes a contiguous host run; a range of scattered frames (every third
   one) is mapped page by page through [map]. Some ranges map a
   512-aligned guest block onto a 512-aligned frame run, as guest RAM is
   mapped, so they lay 2 MB entries that the other ops then write inside. *)
type ept_op =
  | Ept_map of int * int * int (* page, frame, perm index *)
  | Ept_range of int * int * int * int (* page, pages, first frame, perm index *)
  | Ept_scatter of int * int * int * int (* page, pages, first frame, perm index *)
  | Ept_misconfig of int * string
  | Ept_unmap of int

let ept_page_space = 1 lsl 36
let perm_of_index i = { Ept.read = i land 1 <> 0; write = i land 2 <> 0; exec = i land 4 <> 0 }

let ept_op_to_string = function
  | Ept_map (p, f, i) -> Printf.sprintf "map %#x->%#x perm%d" p f i
  | Ept_range (p, n, f, i) -> Printf.sprintf "range %#x+%d->%#x perm%d" p n f i
  | Ept_scatter (p, n, f, i) -> Printf.sprintf "scatter %#x+%d->%#x/3 perm%d" p n f i
  | Ept_misconfig (p, tag) -> Printf.sprintf "misconfig %#x %s" p tag
  | Ept_unmap p -> Printf.sprintf "unmap %#x" p

let ept_ops =
  let open QCheck.Gen in
  let page =
    frequency
      [
        (3, int_bound 1100);
        (2, map (fun k -> (1 lsl 27) - 520 + k) (int_bound 1040));
        (1, map (fun k -> ept_page_space - 1 - k) (int_bound 600));
        (1, int_bound (ept_page_space - 1));
      ]
  in
  let frame = int_bound (129 lsl 18) and perm = int_bound 7 in
  let block =
    map (fun b -> b * 512)
      (frequency
         [
           (3, int_bound 2);
           (2, map (fun k -> (1 lsl 18) - 1 + k) (int_bound 1));
           (1, map (fun k -> (ept_page_space lsr 9) - 2 + k) (int_bound 1));
         ])
  in
  let op =
    frequency
      [
        ( 2,
          map3
            (fun (p, n) f i -> Ept_range (p, n, f * 512, i))
            (pair block (oneofl [ 512; 1000; 1024 ]))
            (int_bound (129 lsl 9)) perm );
        (4, map3 (fun p f i -> Ept_map (p, f, i)) page frame perm);
        ( 2,
          map3
            (fun (p, n) f i -> Ept_range (p, n, f, i))
            (pair page (frequency [ (4, int_range 1 40); (1, int_range 500 600) ]))
            frame perm );
        ( 1,
          map3
            (fun (p, n) f i -> Ept_scatter (p, n, f, i))
            (pair page (int_range 1 40)) frame perm );
        (2, map2 (fun p tag -> Ept_misconfig (p, tag)) page
             (oneofl [ "net-doorbell"; "blk-doorbell"; "console" ]));
        (2, map (fun p -> Ept_unmap p) page);
      ]
  in
  list_size (int_bound 24) op

let prop_ept_matches_model =
  QCheck.Test.make ~name:"ept agrees with assoc-list model" ~count:150
    (QCheck.make ept_ops ~print:(fun ops -> String.concat "; " (List.map ept_op_to_string ops)))
    (fun ops ->
      let e = Ept.create () in
      let model = Hashtbl.create 64 and touched = ref [] in
      let set page entry =
        let page = page land (ept_page_space - 1) in
        touched := page :: !touched;
        match entry with
        | Some en -> Hashtbl.replace model page en
        | None -> Hashtbl.remove model page
      in
      let page_gpa p = gpa (p * 4096) in
      List.iter
        (function
          | Ept_map (p, f, i) ->
              Ept.map e ~gpa:(page_gpa p) ~hpa:(hpa (f * 4096)) ~perm:(perm_of_index i);
              set p (Some (Ept.Page { hpa = hpa (f * 4096); perm = perm_of_index i }))
          | Ept_range (p, n, f, i) ->
              Ept.map_range e ~gpa:(page_gpa p) ~len:((n * 4096) - 7)
                ~perm:(perm_of_index i) ~hpa:(hpa (f * 4096));
              for k = 0 to n - 1 do
                set (p + k)
                  (Some (Ept.Page { hpa = hpa ((f + k) * 4096); perm = perm_of_index i }))
              done
          | Ept_scatter (p, n, f, i) ->
              for k = 0 to n - 1 do
                let page = (p + k) land (ept_page_space - 1) in
                let h = hpa ((f + (3 * k)) * 4096) in
                Ept.map e ~gpa:(page_gpa page) ~hpa:h ~perm:(perm_of_index i);
                set page (Some (Ept.Page { hpa = h; perm = perm_of_index i }))
              done
          | Ept_misconfig (p, tag) ->
              Ept.mark_misconfig e ~gpa:(page_gpa p) ~tag;
              set p (Some (Ept.Misconfig { tag }))
          | Ept_unmap p ->
              Ept.unmap e ~gpa:(page_gpa p);
              set p None)
        ops;
      let agrees page =
        let expected = Hashtbl.find_opt model page in
        let g = Addr.Gpa.add (page_gpa page) ((page * 7) land 4095) in
        let translates access =
          let want =
            match expected with
            | None -> Error (Ept.Violation { gpa = g; access })
            | Some (Ept.Misconfig { tag }) -> Error (Ept.Misconfiguration { gpa = g; tag })
            | Some (Ept.Page { hpa = h; perm }) ->
                let ok =
                  match access with
                  | Ept.Read -> perm.Ept.read
                  | Ept.Write -> perm.Ept.write
                  | Ept.Exec -> perm.Ept.exec
                in
                if ok then Ok (Addr.Hpa.add h (Addr.Gpa.offset g))
                else Error (Ept.Violation { gpa = g; access })
          in
          Ept.translate e ~gpa:g ~access = want
        in
        Ept.lookup e (page_gpa page) = expected
        && List.for_all translates [ Ept.Read; Ept.Write; Ept.Exec ]
      in
      let pages =
        List.sort_uniq compare
          (List.concat_map (fun p -> [ p; (p + 1) land (ept_page_space - 1) ]) !touched)
      in
      (* Each touched page's neighbour one slot over at every directory
         level (p+512, p+2^18, p+2^27), and pages in slots nothing
         writes: tables are sized to the highest slot written, so most
         of these reads fall past a table's end and must still read as
         the model's "unmapped". *)
      let reads_as_model page =
        let page = page land (ept_page_space - 1) in
        Ept.lookup e (page_gpa page) = Hashtbl.find_opt model page
      in
      let neighbours_read_as_model p =
        List.for_all (fun d -> reads_as_model (p + d)) [ 1 lsl 9; 1 lsl 18; 1 lsl 27 ]
      in
      let never_written =
        [ 3 lsl 27; (5 lsl 27) + (7 lsl 18) + (9 lsl 9) + 11; 1 lsl 35; ept_page_space - 1 ]
      in
      let mapped =
        Hashtbl.fold
          (fun _ en n -> match en with Ept.Page _ -> n + 1 | Ept.Misconfig _ -> n)
          model 0
      in
      List.for_all agrees pages
      && List.for_all neighbours_read_as_model !touched
      && List.for_all reads_as_model never_written
      && Ept.mapped_pages e = mapped)

(* --- Address space --------------------------------------------------------- *)

let make_aspace () =
  let mem = Phys_mem.create () in
  let alloc = Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
  Aspace.create ~mem ~alloc ~ram_bytes:(1 lsl 20)

let test_aspace_ram_access () =
  let a = make_aspace () in
  Aspace.write_u64 a (gpa 0x1000) 0x5151;
  checki "rw" 0x5151 (Aspace.read_u64 a (gpa 0x1000))

let test_aspace_mmio_region_faults () =
  let a = make_aspace () in
  let bar = Aspace.add_mmio_region a ~name:"net-doorbell" ~len:(2 * 4096 + 1) in
  (match Ept.translate (Aspace.ept a) ~gpa:bar ~access:Ept.Write with
  | Error (Ept.Misconfiguration { tag; _ }) ->
      Alcotest.(check string) "tag" "net-doorbell" tag
  | _ -> Alcotest.fail "doorbell store must misconfig");
  (* the region is rounded up to three pages, each tagged with its name,
     and the page past it is not part of it *)
  for page = 0 to 2 do
    match Ept.lookup (Aspace.ept a) (Addr.Gpa.add bar ((page * 4096) + 8)) with
    | Some (Ept.Misconfig { tag }) ->
        Alcotest.(check string) "region" "net-doorbell" tag
    | _ -> Alcotest.failf "page %d of the region must be tagged" page
  done;
  checkb "past the region" true
    (Ept.lookup (Aspace.ept a) (Addr.Gpa.add bar (3 * 4096)) = None)

(* Guest RAM and allocated pages take exactly the frames a per-page
   [Frame_alloc.alloc] sequence hands out. A twin allocator driven
   through the same earlier allocations replays that sequence. *)
let test_aspace_frames_follow_allocator () =
  let twin () =
    let a = Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
    for _ = 1 to 3 do
      ignore (Frame_alloc.alloc a 1)
    done;
    a
  in
  let alloc = twin () and expected = twin () in
  let a = Aspace.create ~mem:(Phys_mem.create ()) ~alloc ~ram_bytes:(600 * 4096) in
  let extra = Aspace.alloc_guest_pages a 5 in
  let frame_of g =
    match Ept.translate (Aspace.ept a) ~gpa:g ~access:Ept.Read with
    | Ok h -> Addr.Hpa.to_int h
    | Error _ -> Alcotest.fail "page must map"
  in
  for i = 0 to 599 do
    checki (Printf.sprintf "ram page %d" i)
      (Addr.Hpa.to_int (Frame_alloc.alloc expected 1))
      (frame_of (gpa (i * 4096)))
  done;
  for i = 0 to 4 do
    checki (Printf.sprintf "allocated page %d" i)
      (Addr.Hpa.to_int (Frame_alloc.alloc expected 1))
      (frame_of (Addr.Gpa.add extra (i * 4096)))
  done

(* The scalar accessors are the per-word guest-memory traffic (virtqueue
   indices and descriptors); on a mapped page none of them may allocate. *)
let test_aspace_access_allocates_nothing () =
  let a = make_aspace () in
  let g = Aspace.alloc_guest_pages a 1 in
  let pass () =
    for i = 0 to 499 do
      let w = Addr.Gpa.add g (8 * (i land 63)) in
      Aspace.write_u32 a w (i + Aspace.read_u64 a w)
    done
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "1,000 read_u64/write_u32 calls allocate %.0f minor words" words)
    true (words < 16.)

let test_aspace_alloc_pages_mapped () =
  let a = make_aspace () in
  let g = Aspace.alloc_guest_pages a 2 in
  Aspace.write_bytes a g (Bytes.of_string "hello rings");
  checkb "round trip" true
    (Aspace.read_bytes a g 11 = Bytes.of_string "hello rings")

let test_aspace_bytes_cross_page () =
  let a = make_aspace () in
  let g = Aspace.alloc_guest_pages a 2 in
  let near_end = Addr.Gpa.add g (4096 - 3) in
  Aspace.write_bytes a near_end (Bytes.of_string "boundary");
  checkb "cross-page payload" true
    (Aspace.read_bytes a near_end 8 = Bytes.of_string "boundary")

(* Page-granular copies agree with the byte-wise accessors for any start
   offset and length, including empty copies and exact page multiples. *)
let copy_case =
  QCheck.make
    ~print:QCheck.Print.(triple int int int)
    QCheck.Gen.(
      triple (int_bound 4095)
        (frequency
           [
             (1, return 0);
             (1, map (fun k -> k * 4096) (int_range 1 3));
             (4, int_bound ((3 * 4096) + 17));
           ])
        (int_bound 255))

let prop_aspace_copy_roundtrip =
  QCheck.Test.make ~name:"page-granular copy round trip" ~count:200 copy_case
    (fun (off, len, seed) ->
      let a = make_aspace () in
      let g = Addr.Gpa.add (Aspace.alloc_guest_pages a 5) off in
      let data = Bytes.init len (fun i -> Char.chr (((i * 131) + seed) land 0xFF)) in
      Aspace.write_bytes a g data;
      let back = Aspace.read_bytes a g len in
      let bytewise =
        Bytes.init len (fun i -> Char.chr (Aspace.read_u8 a (Addr.Gpa.add g i)))
      in
      Bytes.equal back data && Bytes.equal bytewise data)

(* A range that runs from RAM into an MMIO page still faults on the MMIO
   page: the EPT is consulted per page, not once per copy. *)
let test_aspace_copy_into_mmio_faults () =
  let a = make_aspace () in
  let bar = Aspace.add_mmio_region a ~name:"net-doorbell" ~len:4096 in
  let start = Addr.Gpa.add bar (-8) in
  let msg = Fmt.str "EPT misconfig at %a (net-doorbell)" Addr.Gpa.pp bar in
  Alcotest.check_raises "write faults" (Failure msg) (fun () ->
      Aspace.write_bytes a start (Bytes.make 16 'x'));
  Alcotest.check_raises "read faults" (Failure msg) (fun () ->
      ignore (Aspace.read_bytes a start 16));
  Alcotest.(check string) "RAM page before the fault was written" "xxxxxxxx"
    (Bytes.to_string (Aspace.read_bytes a start 8))

let () =
  Alcotest.run "svt_mem"
    [
      ( "addr",
        [
          Alcotest.test_case "pages and offsets" `Quick test_addr_pages;
          Alcotest.test_case "negative rejected" `Quick test_addr_negative_rejected;
        ] );
      ( "phys-mem",
        [
          Alcotest.test_case "widths" `Quick test_phys_mem_rw_widths;
          Alcotest.test_case "page crossing" `Quick test_phys_mem_page_crossing;
          Alcotest.test_case "bytes round trip" `Quick test_phys_mem_bytes_roundtrip;
          Alcotest.test_case "range bounds" `Quick test_phys_mem_range_bounds;
          Alcotest.test_case "no over-read at page end" `Quick
            test_phys_mem_no_over_read;
          Alcotest.test_case "narrow page crossing" `Quick
            test_phys_mem_narrow_crossing;
          Alcotest.test_case "sparse materialization" `Quick test_phys_mem_sparse;
          Alcotest.test_case "frame directory" `Quick test_phys_mem_frame_directory;
          Alcotest.test_case "model" `Quick test_phys_mem_model;
          Alcotest.test_case "first touch stays off the major heap" `Quick
            test_phys_mem_first_touch_heap;
        ] );
      ( "frame-alloc",
        [
          Alcotest.test_case "distinct aligned frames" `Quick
            test_frame_alloc_distinct_aligned;
          Alcotest.test_case "contiguous runs" `Quick test_frame_alloc_runs;
          Alcotest.test_case "exhaustion" `Quick test_frame_alloc_exhaustion;
        ] );
      ( "ept",
        [
          Alcotest.test_case "map and translate" `Quick test_ept_map_translate;
          Alcotest.test_case "violation on unmapped" `Quick test_ept_violation_unmapped;
          Alcotest.test_case "write protection" `Quick test_ept_write_protection;
          Alcotest.test_case "misconfig marker (virtio doorbell)" `Quick
            test_ept_misconfig_marker;
          Alcotest.test_case "unmap" `Quick test_ept_unmap;
          Alcotest.test_case "deep radix levels" `Quick test_ept_sparse_high_addresses;
          Alcotest.test_case "map range" `Quick test_ept_map_range;
          QCheck_alcotest.to_alcotest prop_ept_translate_preserves_offset;
          QCheck_alcotest.to_alcotest prop_ept_matches_model;
        ] );
      ( "address-space",
        [
          Alcotest.test_case "ram access" `Quick test_aspace_ram_access;
          Alcotest.test_case "mmio region misconfigs" `Quick
            test_aspace_mmio_region_faults;
          Alcotest.test_case "allocated pages usable" `Quick
            test_aspace_alloc_pages_mapped;
          Alcotest.test_case "frames follow the allocator" `Quick
            test_aspace_frames_follow_allocator;
          Alcotest.test_case "cross-page bytes" `Quick test_aspace_bytes_cross_page;
          Alcotest.test_case "scalar access allocates nothing" `Quick
            test_aspace_access_allocates_nothing;
          Alcotest.test_case "copy into mmio faults" `Quick
            test_aspace_copy_into_mmio_faults;
          QCheck_alcotest.to_alcotest prop_aspace_copy_roundtrip;
        ] );
    ]
