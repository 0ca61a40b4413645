(* Tests for the workload substrates: the KV store (hash table, LRU,
   expiry, eviction), the B+tree, the WAL, and the smaller pieces of the
   benchmark drivers (ETC encoding, TPC-C engine, channel microbenchmark,
   video decode model). *)

module Time = Svt_engine.Time
module Prng = Svt_engine.Prng
module Kvstore = Svt_workloads.Kvstore
module Btree = Svt_workloads.Btree
module Tpcc = Svt_workloads.Tpcc
module Etc = Svt_workloads.Etc_workload
module Channel_bench = Svt_workloads.Channel_bench
module Mode = Svt_core.Mode

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Kvstore ------------------------------------------------------------- *)

let test_kv_set_get () =
  let s = Kvstore.create () in
  Kvstore.set s "k1" (Bytes.of_string "v1");
  checkb "hit" true (Kvstore.get s "k1" = Some (Bytes.of_string "v1"));
  checkb "miss" true (Kvstore.get s "nope" = None)

let test_kv_overwrite () =
  let s = Kvstore.create () in
  Kvstore.set s "k" (Bytes.of_string "old");
  Kvstore.set s "k" (Bytes.of_string "newer");
  checki "size stays 1" 1 (Kvstore.size s);
  checkb "updated" true (Kvstore.get s "k" = Some (Bytes.of_string "newer"))

let test_kv_lru_order_and_touch () =
  let s = Kvstore.create () in
  Kvstore.set s "a" (Bytes.of_string "1");
  Kvstore.set s "b" (Bytes.of_string "2");
  Kvstore.set s "c" (Bytes.of_string "3");
  checkb "most recent first" true (Kvstore.lru_keys s = [ "c"; "b"; "a" ]);
  ignore (Kvstore.get s "a");
  checkb "get touches" true (Kvstore.lru_keys s = [ "a"; "c"; "b" ])

let test_kv_eviction_under_cap () =
  let s = Kvstore.create ~memory_cap:64 () in
  Kvstore.set s "a" (Bytes.make 30 'x');
  Kvstore.set s "b" (Bytes.make 30 'x');
  (* third insert exceeds the cap: LRU victim (a) must go *)
  Kvstore.set s "c" (Bytes.make 30 'x');
  checkb "evicted lru" true (Kvstore.get s "a" = None);
  checkb "kept recent" true
    (Kvstore.get s "b" <> None && Kvstore.get s "c" <> None)

(* Touching the entry already at the head must leave the list as it was;
   a head test that never matches links the head to itself. *)
let test_kv_get_head_keeps_order () =
  let s = Kvstore.create () in
  List.iter (fun k -> Kvstore.set s k (Bytes.of_string k)) [ "a"; "b"; "c" ];
  ignore (Kvstore.get s "c");
  checkb "order kept" true (Kvstore.lru_keys s = [ "c"; "b"; "a" ])

(* Two evictions, the second after a hit on the head: each evicts the
   live tail once. Entries are a 1-byte key plus 30 bytes against a
   64-byte cap, so one 2-byte entry after them fits exactly (64) and the
   next evicts the oldest 31-byte entry: the accounting is exact. *)
let test_kv_two_evictions () =
  let s = Kvstore.create ~memory_cap:64 () in
  List.iter (fun k -> Kvstore.set s k (Bytes.make 30 'x')) [ "a"; "b"; "c" ];
  ignore (Kvstore.get s "c");
  Kvstore.set s "d" (Bytes.make 30 'x');
  checkb "a and b evicted" true (Kvstore.get s "a" = None && Kvstore.get s "b" = None);
  checki "size after two evictions" 2 (Kvstore.size s);
  checkb "lru after two evictions" true (Kvstore.lru_keys s = [ "d"; "c" ]);
  Kvstore.set s "e" (Bytes.make 1 'x');
  checki "exactly at the cap" 3 (Kvstore.size s);
  Kvstore.set s "f" (Bytes.make 1 'x');
  checki "one over evicts one" 3 (Kvstore.size s);
  checkb "oldest evicted" true (Kvstore.lru_keys s = [ "f"; "e"; "d" ])

let test_kv_resize_preserves_entries () =
  (* 2,000 keys cross the 3/4-load mark of 1,024 and then 2,048 buckets:
     two resizes *)
  let s = Kvstore.create () in
  for i = 1 to 2000 do
    Kvstore.set s (Printf.sprintf "key-%d" i) (Bytes.of_string (string_of_int i))
  done;
  checki "all present" 2000 (Kvstore.size s);
  let ok = ref true in
  for i = 1 to 2000 do
    if Kvstore.get s (Printf.sprintf "key-%d" i)
       <> Some (Bytes.of_string (string_of_int i))
    then ok := false
  done;
  checkb "all readable after resize" true !ok

let prop_kv_model =
  (* model-based: the store behaves like an association list (no cap) *)
  QCheck.Test.make ~name:"kvstore matches a model" ~count:100
    QCheck.(list (pair (int_bound 20) (string_of_size (Gen.return 3))))
    (fun ops ->
      let s = Kvstore.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = "k" ^ string_of_int k in
          Kvstore.set s key (Bytes.of_string v);
          Hashtbl.replace model key v)
        ops;
      Hashtbl.fold
        (fun k v acc ->
          acc && Kvstore.get s k = Some (Bytes.of_string v))
        model true
      && Kvstore.size s = Hashtbl.length model)

(* The bucket hash is FNV-1a on 63-bit ints: the fold it was first
   written as, over any bytes, the empty key and high bytes included. *)
let prop_kv_hash_is_fnv1a =
  QCheck.Test.make ~name:"kvstore hash is FNV-1a" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 40) Gen.char)
    (fun key ->
      let reference =
        String.fold_left
          (fun h c -> (h lxor Char.code c) * 0x100000001b3)
          0x1cbf29ce48422232 key
        land max_int
      in
      Kvstore.hash key = reference)

(* --- Btree ---------------------------------------------------------------- *)

(* Number of keys, through the leaf chain. *)
let btree_size t = List.length (Btree.range t ~lo:min_int ~hi:max_int)

let test_btree_insert_find () =
  let t = Btree.create () in
  for i = 1 to 1000 do
    Btree.insert t i (i * 10)
  done;
  checki "size" 1000 (btree_size t);
  checkb "find" true (Btree.find t 500 = Some 5000);
  checkb "missing" true (Btree.find t 1001 = None);
  checkb "invariants" true (Btree.check_invariants t)

let test_btree_overwrite () =
  let t = Btree.create () in
  Btree.insert t 5 "a";
  Btree.insert t 5 "b";
  checki "no duplicate" 1 (btree_size t);
  checkb "latest value" true (Btree.find t 5 = Some "b")

let test_btree_range () =
  let t = Btree.create ~order:8 () in
  List.iter (fun i -> Btree.insert t i (i * 2)) [ 5; 1; 9; 3; 7; 2; 8 ];
  let r = Btree.range t ~lo:3 ~hi:8 in
  checkb "sorted slice" true (r = [ (3, 6); (5, 10); (7, 14); (8, 16) ])

let test_btree_update_in_place () =
  let t = Btree.create () in
  Btree.insert t 1 10;
  checkb "update hit" true (Btree.update t 1 (fun v -> v + 5));
  checkb "applied" true (Btree.find t 1 = Some 15);
  checkb "update miss" false (Btree.update t 2 Fun.id)

let prop_btree_sorted_matches_model =
  QCheck.Test.make ~name:"btree range = sorted model" ~count:100
    QCheck.(list (int_bound 500))
    (fun keys ->
      let t = Btree.create ~order:6 () in
      List.iter (fun k -> Btree.insert t k k) keys;
      let expect = List.sort_uniq compare keys in
      Btree.check_invariants t
      && List.map fst (Btree.range t ~lo:0 ~hi:500) = expect)

let prop_btree_mixed_ops_invariants =
  QCheck.Test.make ~name:"btree invariants under mixed ops" ~count:50
    QCheck.(list (pair bool (int_bound 200)))
    (fun ops ->
      let t = Btree.create ~order:4 () in
      List.iter
        (fun (ins, k) ->
          if ins then Btree.insert t k k else ignore (Btree.update t k succ))
        ops;
      Btree.check_invariants t)

(* --- ETC workload pieces ------------------------------------------------------ *)

let test_etc_request_codec () =
  let b = Etc.encode_request ~is_get:true ~id:4242 ~rank:17 ~vsize:300 in
  let r = Etc.decode_request (Bytes.of_string b) in
  checkb "get" true r.Etc.is_get;
  checki "id" 4242 r.Etc.id;
  checki "rank" 17 r.Etc.rank;
  checki "vsize" 300 r.Etc.vsize

(* The key writer spells every rank the client can draw as the format
   string did. *)
let test_etc_key_of_matches_sprintf () =
  for rank = 0 to Etc.key_space do
    let want = Printf.sprintf "etc:key:%07d" rank in
    if Etc.key_of rank <> want then
      Alcotest.failf "key_of %d = %S, want %S" rank (Etc.key_of rank) want
  done;
  Alcotest.(check string) "largest rank" "etc:key:9999999" (Etc.key_of 9_999_999);
  checkb "negative rank rejected" true
    (match Etc.key_of (-1) with _ -> false | exception Invalid_argument _ -> true)

let test_etc_value_sizes_plausible () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Etc.value_size rng in
    checkb "within ETC range" true (v >= 16 && v <= 8000)
  done

(* --- TPC-C engine --------------------------------------------------------------- *)

let test_tpcc_mix_proportions () =
  let rng = Prng.create 5 in
  let counts = Hashtbl.create 8 in
  let n = 20_000 in
  for _ = 1 to n do
    let k = Tpcc.pick_kind rng in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let share k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float_of_int n in
  checkb "new-order ~45%" true (Float.abs (share Tpcc.New_order -. 0.45) < 0.02);
  checkb "payment ~43%" true (Float.abs (share Tpcc.Payment -. 0.43) < 0.02)

let test_tpcc_engine_consistency () =
  let db = Tpcc.build_db () in
  let rng = Prng.create 6 in
  (* a WAL that never talks to a device: validate pure engine behaviour *)
  let machine = Svt_hyp.Machine.create () in
  let vm =
    Svt_hyp.Vm.create ~machine ~name:"db" ~level:1 ~ram_bytes:(1 lsl 20)
      ~cpuid:(Svt_arch.Cpuid_db.host ())
  in
  let vcpu = Svt_hyp.Vcpu.create ~machine ~vm ~index:0 ~core_id:0 ~hw_ctx:0 in
  let disk = Svt_virtio.Ramdisk.create ~size_mb:64 in
  let blk = Svt_virtio.Virtio_blk.create ~machine ~vm ~name:"b" ~disk in
  let wal = Svt_workloads.Wal.create ~blk ~vcpu in
  for _ = 1 to 200 do
    Tpcc.engine_work db rng wal (Tpcc.pick_kind rng)
  done;
  (* stock rows stay positive (replenishment rule) *)
  let ok = ref true in
  List.iter
    (fun (_, s) -> if s.Tpcc.s_quantity <= 0 then ok := false)
    (Btree.range db.Tpcc.stock ~lo:1 ~hi:Tpcc.n_items);
  checkb "stock invariant" true !ok;
  checkb "orders recorded" true (btree_size db.Tpcc.orders > 0)

(* --- Channel microbenchmark (§6.1 findings) -------------------------------------- *)

let test_channel_bench_findings () =
  let samples = Channel_bench.sweep () in
  let find mech placement wl =
    List.find
      (fun s ->
        s.Channel_bench.mechanism = mech
        && s.Channel_bench.placement = placement
        && s.Channel_bench.workload_increments = wl)
      samples
  in
  let poll0 = find (Channel_bench.Wait Mode.Polling) Mode.Smt_sibling 0 in
  let mwait0 = find (Channel_bench.Wait Mode.Mwait) Mode.Smt_sibling 0 in
  let mutex0 = find (Channel_bench.Wait Mode.Mutex) Mode.Smt_sibling 0 in
  (* polling lowest latency at small workloads *)
  checkb "poll < mwait at wl=0" true
    (poll0.Channel_bench.round_trip_us < mwait0.Channel_bench.round_trip_us);
  checkb "mwait < mutex at wl=0" true
    (mwait0.Channel_bench.round_trip_us < mutex0.Channel_bench.round_trip_us);
  (* polling interferes with the sibling's big workload; mwait does not *)
  let wl = 100_000 in
  let wl_us = float_of_int wl /. 2.4 /. 1000.0 in
  let poll_big = find (Channel_bench.Wait Mode.Polling) Mode.Smt_sibling wl in
  let mwait_big = find (Channel_bench.Wait Mode.Mwait) Mode.Smt_sibling wl in
  checkb "poller slows the worker" true (poll_big.Channel_bench.worker_slowdown > 1.2);
  checkb "mwait leaves the worker alone" true
    (mwait_big.Channel_bench.worker_slowdown = 1.0);
  checkb "mwait wins on effective cost at large workloads" true
    (Channel_bench.effective_cost_us mwait_big ~workload_us:wl_us
    < Channel_bench.effective_cost_us poll_big ~workload_us:wl_us);
  (* cross-NUMA an order of magnitude worse *)
  let numa = find (Channel_bench.Wait Mode.Polling) Mode.Cross_numa 0 in
  checkb "cross-numa ~10x" true
    (numa.Channel_bench.round_trip_us > 5.0 *. poll0.Channel_bench.round_trip_us)

(* --- Video decode model ------------------------------------------------------------ *)

let test_video_decode_distribution () =
  let rng = Prng.create 77 in
  let heavies = ref 0 and normals = ref 0 in
  for _ = 1 to 2000 do
    let heavy = Prng.float rng < Svt_workloads.Video.heavy_frame_rate in
    let d = Svt_workloads.Video.decode_time rng ~heavy in
    if heavy then begin
      incr heavies;
      checkb "heavy ~8.3ms" true (d > Time.of_ms_f 8.1 && d < Time.of_ms_f 8.45)
    end
    else begin
      incr normals;
      checkb "normal ~3.2ms" true (d > Time.of_ms_f 1.8 && d < Time.of_ms_f 4.6)
    end
  done;
  checkb "heavy frames rare" true (!heavies < !normals / 50)

let () =
  Alcotest.run "svt_workloads"
    [
      ( "kvstore",
        [
          Alcotest.test_case "set/get" `Quick test_kv_set_get;
          Alcotest.test_case "overwrite" `Quick test_kv_overwrite;
          Alcotest.test_case "lru order and touch" `Quick test_kv_lru_order_and_touch;
          Alcotest.test_case "eviction under cap" `Quick test_kv_eviction_under_cap;
          Alcotest.test_case "get head keeps order" `Quick test_kv_get_head_keeps_order;
          Alcotest.test_case "two evictions" `Quick test_kv_two_evictions;
          Alcotest.test_case "resize preserves entries" `Quick
            test_kv_resize_preserves_entries;
          QCheck_alcotest.to_alcotest prop_kv_model;
          QCheck_alcotest.to_alcotest prop_kv_hash_is_fnv1a;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "overwrite" `Quick test_btree_overwrite;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "update in place" `Quick test_btree_update_in_place;
          QCheck_alcotest.to_alcotest prop_btree_sorted_matches_model;
          QCheck_alcotest.to_alcotest prop_btree_mixed_ops_invariants;
        ] );
      ( "etc",
        [
          Alcotest.test_case "request codec" `Quick test_etc_request_codec;
          Alcotest.test_case "value sizes" `Quick test_etc_value_sizes_plausible;
          Alcotest.test_case "key_of matches sprintf" `Quick
            test_etc_key_of_matches_sprintf;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "transaction mix" `Quick test_tpcc_mix_proportions;
          Alcotest.test_case "engine consistency" `Quick test_tpcc_engine_consistency;
        ] );
      ( "channel-bench",
        [
          Alcotest.test_case "section 6.1 findings" `Quick test_channel_bench_findings;
        ] );
      ( "video",
        [
          Alcotest.test_case "decode model" `Quick test_video_decode_distribution;
        ] );
    ]
