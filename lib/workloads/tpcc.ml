(* Figure 9: a TPC-C-style transactional workload (sysbench-tpcc over
   PostgreSQL in the paper) against a mini storage engine built from real
   substrates: B+tree tables, a write-ahead log on virtio-blk, and a
   query/response exchange per statement over virtio-net (the benchmark
   client runs on the separate machine).

   The transaction mix follows TPC-C: New-Order 45 %, Payment 43 %,
   Order-Status 4 %, Delivery 4 %, Stock-Level 4 %. Each SQL statement is
   one network round trip; read-write transactions commit through the
   WAL. Throughput is reported in transactions per minute. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Prng = Svt_engine.Prng
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Net = Svt_virtio.Virtio_net
module Fabric = Svt_virtio.Fabric

(* --- schema ------------------------------------------------------------- *)

type item_row = { mutable i_price : int }
type stock_row = { mutable s_quantity : int; mutable s_ytd : int }
type customer_row = { mutable c_balance : int; mutable c_ytd_payment : int }
type order_row = { mutable o_delivered : bool }

type db = {
  items : item_row Btree.t;
  stock : stock_row Btree.t;
  customers : customer_row Btree.t;
  orders : order_row Btree.t;
  mutable next_order_id : int;
  mutable district_ytd : int;
}

let n_items = 2_000
let n_customers = 600

let build_db () =
  let db =
    {
      items = Btree.create ();
      stock = Btree.create ();
      customers = Btree.create ();
      orders = Btree.create ();
      next_order_id = 1;
      district_ytd = 0;
    }
  in
  for i = 1 to n_items do
    Btree.insert db.items i { i_price = 100 + (i mod 900) };
    Btree.insert db.stock i { s_quantity = 100; s_ytd = 0 }
  done;
  for c = 1 to n_customers do
    Btree.insert db.customers c { c_balance = 0; c_ytd_payment = 0 }
  done;
  db

(* --- transactions ------------------------------------------------------- *)

type kind = New_order | Payment | Order_status | Delivery | Stock_level

let pick_kind rng =
  let r = Prng.float rng in
  if r < 0.45 then New_order
  else if r < 0.88 then Payment
  else if r < 0.92 then Order_status
  else if r < 0.96 then Delivery
  else Stock_level

(* Statements (network round trips) and engine work per transaction,
   following sysbench-tpcc's statement counts (New-Order issues a select/
   update pair per order line plus the order bookkeeping). *)
let statements_of = function
  | New_order -> 48
  | Payment -> 26
  | Order_status -> 14
  | Delivery -> 40
  | Stock_level -> 30

let is_read_write = function
  | New_order | Payment | Delivery -> true
  | Order_status | Stock_level -> false

(* Execute the engine-side work of a transaction (real B+tree traffic). *)
let engine_work db rng wal kind =
  match kind with
  | New_order ->
      let lines = 5 + Prng.int rng 10 in
      for _ = 1 to lines do
        let item = 1 + Prng.int rng n_items in
        (match Btree.find db.items item with
        | Some it -> ignore it.i_price
        | None -> ());
        ignore
          (Btree.update db.stock item (fun s ->
               s.s_quantity <-
                 (if s.s_quantity > 10 then s.s_quantity - 1
                  else s.s_quantity + 91);
               s.s_ytd <- s.s_ytd + 1;
               s))
      done;
      let oid = db.next_order_id in
      db.next_order_id <- oid + 1;
      (* the order's customer is drawn, keeping the transaction's random
         stream, but no transaction reads it back, so it is not stored *)
      ignore (Prng.int rng n_customers);
      Btree.insert db.orders oid { o_delivered = false };
      ignore (Wal.append wal (Printf.sprintf "neword:%d:%d" oid lines))
  | Payment ->
      let c = 1 + Prng.int rng n_customers in
      let amount = 1 + Prng.int rng 5000 in
      ignore
        (Btree.update db.customers c (fun row ->
             row.c_balance <- row.c_balance - amount;
             row.c_ytd_payment <- row.c_ytd_payment + amount;
             row));
      db.district_ytd <- db.district_ytd + amount;
      ignore (Wal.append wal (Printf.sprintf "payment:%d:%d" c amount))
  | Order_status ->
      let c = 1 + Prng.int rng n_customers in
      ignore (Btree.find db.customers c)
  | Delivery ->
      (* deliver the ten oldest undelivered orders *)
      let delivered = ref 0 in
      let lo = max 1 (db.next_order_id - 200) in
      List.iter
        (fun (_k, o) ->
          if (not o.o_delivered) && !delivered < 10 then begin
            o.o_delivered <- true;
            incr delivered
          end)
        (Btree.range db.orders ~lo ~hi:db.next_order_id);
      ignore (Wal.append wal (Printf.sprintf "delivery:%d" !delivered))
  | Stock_level ->
      let low =
        Btree.fold_range db.stock ~lo:1 ~hi:n_items ~init:0 ~f:(fun acc _ s ->
            if s.s_quantity < 15 then acc + 1 else acc)
      in
      ignore low

type result = {
  tpm : float;
  transactions : int;
  new_orders : int;
}

(* One sysbench connection: the client sends each statement, the server
   parses/executes/responds; read-write transactions end with a WAL
   commit. Statement round trips ride the same virtio-net path as every
   other network workload. *)
(* Guest time to parse, plan and execute one statement. *)
let query_cost = Time.of_us 95

let run ?(duration = Time.of_ms 400) sys =
  let vcpu = System.vcpu0 sys in
  let net, fabric = System.attach_net sys in
  let blk, _disk = System.attach_blk sys in
  let db = build_db () in
  let rng = Prng.create 11 in
  let wal = Wal.create ~blk ~vcpu in
  let txns = ref 0 and new_orders = ref 0 in
  let finished = ref false in
  let elapsed = ref Time.zero in
  Vcpu.register_isr vcpu ~vector:System.net_vector (fun () -> ());
  Vcpu.register_isr vcpu ~vector:System.blk_vector (fun () -> ());
  (* client: issues statements back-to-back (sysbench with 1 thread) *)
  let to_server pkt = Fabric.send fabric ~from:(Fabric.endpoint_b fabric) pkt in
  (* statements are fixed 64-byte packets: one immutable value each *)
  let query = String.make 64 'Q' and commit = String.make 64 'C' in
  let responses = Simulator.Mailbox.create (System.sim sys) in
  Fabric.on_deliver (Fabric.endpoint_b fabric) (fun pkt ->
      Simulator.Mailbox.send responses pkt);
  (* server guest program *)
  Vcpu.spawn_program vcpu (fun v ->
      Net.driver_fill_rx net 128;
      let cost = System.cost sys in
      while not !finished do
        Guest.arm_timer v ~after:(Time.of_ms 1);
        let rec pull () =
          match Net.driver_receive net with
          | None -> ()
          | Some pkt ->
              Guest.syscall v cost;
              (* parse + plan + execute the statement *)
              Guest.compute v query_cost;
              (match Bytes.get pkt 0 with
              | 'C' ->
                  (* commit marker: flush the WAL *)
                  Wal.commit wal
              | _ -> ());
              Guest.syscall v cost;
              if not (Net.driver_transmit net (Bytes.make 32 'O')) then
                failwith "tpcc: TX ring full";
              if Net.need_kick net then
                Guest.mmio_write32 v (Net.doorbell_gpa net) 1;
              pull ()
        in
        pull ();
        if not !finished then begin
          Guest.arm_timer v ~after:(Time.of_ms 1);
          Guest.hlt v
        end
      done);
  Simulator.spawn (System.sim sys) ~name:"sysbench" (fun () ->
      let t0 = Proc.now () in
      let deadline = Time.add t0 duration in
      while Time.(Proc.now () < deadline) do
        let kind = pick_kind rng in
        let stmts = statements_of kind in
        for _ = 1 to stmts - 1 do
          to_server query;
          ignore (Simulator.Mailbox.recv responses)
        done;
        (* engine work happens server-side; we account it under the last
           statement by running it here before the commit exchange *)
        engine_work db rng wal kind;
        to_server (if is_read_write kind then commit else query);
        ignore (Simulator.Mailbox.recv responses);
        incr txns;
        if kind = New_order then incr new_orders
      done;
      elapsed := Time.diff (Proc.now ()) t0;
      finished := true;
      to_server query (* wake the server to observe the flag *));
  System.run sys;
  let minutes = Time.to_sec_f !elapsed /. 60.0 in
  {
    tpm = float_of_int !txns /. minutes;
    transactions = !txns;
    new_orders = !new_orders;
  }
