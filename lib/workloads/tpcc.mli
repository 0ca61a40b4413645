(** Figure 9: a TPC-C-style transactional workload (sysbench-tpcc over
    PostgreSQL in the paper) against a mini storage engine built from
    real substrates: {!Btree} tables, a {!Wal} on virtio-blk, and a
    query/response exchange per statement over virtio-net. The mix
    follows TPC-C (New-Order 45 %, Payment 43 %, Order-Status/Delivery/
    Stock-Level 4 % each); read-write transactions commit through the
    WAL. Throughput is transactions per minute. *)

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

val n_items : int
val build_db : unit -> db

type kind = New_order | Payment | Order_status | Delivery | Stock_level

val pick_kind : Svt_engine.Prng.t -> kind

val engine_work : db -> Svt_engine.Prng.t -> Wal.t -> kind -> unit
(** Execute the engine-side work of one transaction (real B+tree traffic
    and WAL appends). *)

type result = {
  tpm : float;
  transactions : int;
  new_orders : int;
}

val run : ?duration:Svt_engine.Time.t -> Svt_core.System.t -> result
(** One sysbench connection against a fresh database on the given nested
    system; the guest spends 95 µs executing each statement. *)
