(* Figure 8: memcached under Facebook's ETC workload, driven by a
   mutilate-style open-loop client on the separate physical machine.

   The server runs a real [Kvstore] inside the guest, one worker per vCPU,
   each with its own virtio-net queue (RSS); the client draws keys from a
   Zipfian popularity distribution, sizes from the ETC value-size mix, and
   issues requests with exponential inter-arrival gaps at the target load,
   recording per-request latency. The paper's SLA is the 99th percentile
   at 500 µs. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module Prng = Svt_engine.Prng
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Net = Svt_virtio.Virtio_net
module Fabric = Svt_virtio.Fabric

let key_space = 20_000
let get_ratio = 0.95 (* ETC is dominated by GETs *)

(* ETC value sizes: mostly a few hundred bytes with a heavy tail. *)
let value_size rng =
  let u = Prng.float rng in
  if u < 0.4 then Prng.int_in_range rng ~lo:16 ~hi:100
  else if u < 0.9 then Prng.int_in_range rng ~lo:100 ~hi:700
  else if u < 0.99 then Prng.int_in_range rng ~lo:700 ~hi:4000
  else Prng.int_in_range rng ~lo:4000 ~hi:8000

(* "etc:key:" and the rank in seven zero-padded digits, as
   [Printf.sprintf "etc:key:%07d"] prints it, written byte by byte: it
   runs on every request and on each key of the pre-warm. *)
let key_of rank =
  if rank < 0 || rank > 9_999_999 then invalid_arg "Etc_workload.key_of";
  let b = Bytes.create 15 in
  Bytes.blit_string "etc:key:" 0 b 0 8;
  let r = ref rank in
  for i = 14 downto 8 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!r mod 10)));
    r := !r / 10
  done;
  Bytes.unsafe_to_string b

(* Request wire format: 'G'/'S' byte, 4-byte id, 4-byte key rank,
   4-byte value size. Responses echo the id ('R' + id + payload). *)
let encode_request ~is_get ~id ~rank ~vsize =
  let b = Bytes.create 13 in
  Bytes.set b 0 (if is_get then 'G' else 'S');
  Bytes.set_int32_le b 1 (Int32.of_int id);
  Bytes.set_int32_le b 5 (Int32.of_int rank);
  Bytes.set_int32_le b 9 (Int32.of_int vsize);
  Bytes.unsafe_to_string b

type request = { is_get : bool; id : int; rank : int; vsize : int }

let decode_request b =
  {
    is_get = Bytes.get b 0 = 'G';
    id = Int32.to_int (Bytes.get_int32_le b 1);
    rank = Int32.to_int (Bytes.get_int32_le b 5);
    vsize = Int32.to_int (Bytes.get_int32_le b 9);
  }

type point = {
  offered_qps : float;
  achieved_qps : float;
  avg_us : float;
  p99_us : float;
  requests : int;
}

(* Serve requests on one vCPU / queue pair. *)
let server_worker sys store net vcpu =
  let cost = System.cost sys in
  Vcpu.register_isr vcpu ~vector:System.net_vector (fun () -> ());
  Vcpu.spawn_program vcpu (fun v ->
      Net.driver_fill_rx net 192;
      let stop = ref false in
      (* the tickless kernel skips TSC-deadline reprogramming when the
         armed deadline is still far enough away *)
      let last_arm = ref (Time.of_ms (-1)) in
      let arm_if_stale () =
        if Time.(Time.diff (Proc.now ()) !last_arm > Time.of_us 500) then begin
          last_arm := Proc.now ();
          Guest.arm_timer v ~after:(Time.of_ms 1)
        end
      in
      while not !stop do
        let rec pull () =
          match Net.driver_receive net with
          | None -> ()
          | Some pkt when Bytes.length pkt < 13 -> pull () (* stray ack *)
          | Some pkt ->
              Guest.syscall v cost;
              let req = decode_request pkt in
              (* the actual store operation, plus its compute time *)
              let payload =
                if req.is_get then (
                  match Kvstore.get store (key_of req.rank) with
                  | Some value -> Bytes.length value
                  | None ->
                      (* miss: populate as a cache would after a DB fetch *)
                      Kvstore.set store (key_of req.rank) (Bytes.make req.vsize 'v');
                      req.vsize)
                else begin
                  Kvstore.set store (key_of req.rank) (Bytes.make req.vsize 'v');
                  0
                end
              in
              Guest.compute v (Time.of_ns (1_200 + (payload / 8)));
              let resp = Bytes.create (5 + min payload 1400) in
              Bytes.set resp 0 'R';
              Bytes.set_int32_le resp 1 (Int32.of_int req.id);
              Guest.syscall v cost;
              if not (Net.driver_transmit net resp) then
                failwith "etc: TX ring full";
              if Net.need_kick net then
                Guest.mmio_write32 v (Net.doorbell_gpa net) 1;
              pull ()
        in
        pull ();
        arm_if_stale ();
        Guest.hlt v
      done)

(* Run one load point. *)
let run_point ?(duration = Time.of_ms 60) ~qps sys =
  let n = System.n_vcpus sys in
  let store = Kvstore.create ~memory_cap:(64 * 1024 * 1024) () in
  let rng = Prng.create 7 in
  let zipf = Prng.Zipf.create ~n:key_space ~s:0.99 in
  let nets =
    Array.init n (fun i ->
        let net, fabric = System.attach_net ~vcpu_index:i sys in
        server_worker sys store net (System.vcpu sys i);
        (net, fabric))
  in
  (* pre-warm the store so GETs mostly hit, as in steady-state ETC *)
  for rank = 1 to key_space do
    Kvstore.set store (key_of rank) (Bytes.make (value_size rng) 'v')
  done;
  let lat = Svt_stats.Histogram.create () in
  let sent = ref 0 and received = ref 0 in
  let first_send = ref Time.zero and last_recv = ref Time.zero in
  let in_flight : (int, Time.t) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun (_, fabric) ->
      Fabric.on_deliver (Fabric.endpoint_b fabric) (fun pkt ->
          if String.length pkt >= 5 && pkt.[0] = 'R' then begin
            let id = Int32.to_int (String.get_int32_le pkt 1) in
            match Hashtbl.find_opt in_flight id with
            | Some t0 ->
                Hashtbl.remove in_flight id;
                incr received;
                last_recv := Simulator.now (System.sim sys);
                Svt_stats.Histogram.add lat
                  (Time.to_ns (Time.diff !last_recv t0))
            | None -> ()
          end))
    nets;
  Simulator.spawn (System.sim sys) ~name:"mutilate" (fun () ->
      let deadline = Time.add (Proc.now ()) duration in
      first_send := Proc.now ();
      let id = ref 0 in
      while Time.(Proc.now () < deadline) do
        let gap = Prng.exponential rng ~mean:(1e9 /. qps) in
        Proc.delay (Time.of_ns (max 1 (int_of_float gap)));
        incr id;
        let rank = Prng.Zipf.draw zipf rng in
        let is_get = Prng.float rng < get_ratio in
        let req =
          encode_request ~is_get ~id:!id ~rank ~vsize:(value_size rng)
        in
        (* connection-based load balancing: mutilate spreads its
           connections evenly across the server's worker queues *)
        let _, fabric = nets.(!id mod n) in
        Hashtbl.replace in_flight !id (Proc.now ());
        incr sent;
        Fabric.send fabric ~from:(Fabric.endpoint_b fabric) req
      done);
  System.run ~until:(Time.add duration (Time.of_ms 20)) sys;
  let span = Time.to_sec_f (Time.max (Time.diff !last_recv !first_send) (Time.of_ms 1)) in
  {
    offered_qps = qps;
    achieved_qps = float_of_int !received /. span;
    avg_us = Svt_stats.Histogram.mean lat /. 1000.0;
    p99_us = float_of_int (Svt_stats.Histogram.p99 lat) /. 1000.0;
    requests = !received;
  }

(* The Figure 8 sweep for one mode. *)
let sweep ?(loads = [ 5_000.; 7_500.; 10_000.; 12_500.; 15_000.; 17_500.; 20_000.; 22_500. ])
    ?duration ~mode () =
  List.map
    (fun qps ->
      let sys =
        System.of_config
          (System.Config.make ~n_vcpus:2 ~mode ~level:System.L2_nested ())
      in
      run_point ?duration ~qps sys)
    loads

(* Highest offered load whose p99 meets the SLA. *)
let capacity_within_sla ~sla_us points =
  List.fold_left
    (fun acc p -> if p.p99_us <= sla_us && p.requests > 0 then max acc p.offered_qps else acc)
    0.0 points
