(* netperf-style network benchmarks over the virtio-net stack (paper §6.2):

   TCP_RR  — round-trip latency of 1-byte request/response transactions,
             with the client on the separate physical machine;
   TCP_STREAM — one-way throughput of 16 KB sends with delayed ACKs.

   The guest's per-transaction behaviour generates the exact exit schedule
   the paper profiles: doorbell kicks (EPT_MISCONFIG), interrupt delivery
   and EOI, and TSC-deadline re-arming (MSR_WRITE) around idle. *)

module Time = Svt_engine.Time
module Simulator = Svt_engine.Simulator
module Proc = Simulator.Proc
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Net = Svt_virtio.Virtio_net
module Fabric = Svt_virtio.Fabric

let rr_packet_bytes = 1
let stream_packet_bytes = 16 * 1024
let ack_every = 8 (* delayed-ACK ratio for streams (GRO-grade coalescing) *)

(* The client's packets never change, so each is one immutable value. *)
let rr_request = String.make rr_packet_bytes 'R'
let ack = "A"

(* Transmit one packet from the guest: socket write, ring push, and a
   doorbell kick only when the device backend has parked (EVENT_IDX
   notification suppression). *)
let guest_send sys vcpu net (pkt : Bytes.t) =
  let cost = System.cost sys in
  Guest.syscall vcpu cost;
  if not (Net.driver_transmit net pkt) then failwith "netperf: TX ring full";
  if Net.need_kick net then Guest.mmio_write32 vcpu (Net.doorbell_gpa net) 1

(* The server's interrupt-driven receive loop body: pull everything the
   device completed, classify, respond to requests. *)
let serve_pending sys vcpu net ~on_request =
  let cost = System.cost sys in
  let rec pull () =
    match Net.driver_receive net with
    | None -> ()
    | Some pkt ->
        Guest.syscall vcpu cost;
        (* request packets start with 'R'; ACKs ('A') are absorbed by the
           TCP stack with a shorter path *)
        if Bytes.length pkt > 0 && Bytes.get pkt 0 = 'R' then on_request pkt
        else Guest.compute vcpu (Time.of_ns 600);
        pull ()
  in
  pull ()

type rr_result = {
  mean_rtt_us : float;
  p99_rtt_us : float;
  transactions : int;
}

(* TCP_RR: client on the fabric's far end, server in the guest. The client
   ACKs every response (interrupt coalescing off, as for latency runs). *)
let run_rr ?(transactions = 400) sys =
  let vcpu = System.vcpu0 sys in
  let net, fabric = System.attach_net sys in
  let sim = System.sim sys in
  let rtts = Svt_stats.Histogram.create () in
  let finished = ref false in
  (* server guest program *)
  Vcpu.register_isr vcpu ~vector:System.net_vector (fun () -> ());
  Vcpu.spawn_program vcpu (fun v ->
      Net.driver_fill_rx net 128;
      while not !finished do
        (* the tick-less kernel reprograms the TSC deadline on idle exit *)
        Guest.arm_timer v ~after:(Time.of_ms 1);
        serve_pending sys v net ~on_request:(fun _req ->
            (* steady-state TCP_RR piggybacks ACKs on the data packets *)
            Guest.compute v (Time.of_ns 500);
            guest_send sys v net (Bytes.make rr_packet_bytes 'S'));
        if not !finished then begin
          (* ... and again on idle entry *)
          Guest.arm_timer v ~after:(Time.of_ms 1);
          Guest.hlt v
        end
      done);
  (* client machine *)
  let client = Fabric.endpoint_b fabric in
  let response = Simulator.Mailbox.create sim in
  Fabric.on_deliver client (fun pkt -> Simulator.Mailbox.send response pkt);
  Simulator.spawn sim ~name:"netperf-client" (fun () ->
      for _ = 1 to transactions do
        let t0 = Proc.now () in
        Fabric.send fabric ~from:client rr_request;
        (* skip the server's pure TCP ACK; the response payload is 'S' *)
        let rec await () =
          let pkt = Simulator.Mailbox.recv response in
          if String.length pkt > 0 && pkt.[0] = 'S' then () else await ()
        in
        await ();
        Svt_stats.Histogram.add rtts (Time.to_ns (Time.diff (Proc.now ()) t0))
      done;
      finished := true;
      (* wake the server so its loop can observe the flag and finish *)
      Fabric.send fabric ~from:client ack);
  System.run sys;
  {
    mean_rtt_us = Svt_stats.Histogram.mean rtts /. 1000.0;
    p99_rtt_us = float_of_int (Svt_stats.Histogram.p99 rtts) /. 1000.0;
    transactions;
  }

type stream_result = { mbps : float; packets : int }

(* TCP_STREAM: the guest pushes 16 KB writes for [duration]; the client
   ACKs every [ack_every] packets. Throughput is payload delivered at the
   client over the duration. *)
let run_stream ?(duration = Time.of_ms 30) sys =
  let vcpu = System.vcpu0 sys in
  let net, fabric = System.attach_net sys in
  let received = ref 0 in
  let packets = ref 0 in
  let deadline = ref Time.zero in
  let last_delivery = ref Time.zero in
  Vcpu.register_isr vcpu ~vector:System.net_vector (fun () -> ());
  let client = Fabric.endpoint_b fabric in
  let unacked = ref 0 in
  Fabric.on_deliver client (fun pkt ->
      received := !received + String.length pkt;
      incr packets;
      last_delivery := Svt_engine.Simulator.now (System.sim sys);
      incr unacked;
      if !unacked >= ack_every then begin
        unacked := 0;
        Fabric.send fabric ~from:client ack
      end);
  let started = ref Time.zero in
  Vcpu.spawn_program vcpu (fun v ->
      Net.driver_fill_rx net 128;
      started := Proc.now ();
      deadline := Time.add (Proc.now ()) duration;
      let payload = Bytes.make stream_packet_bytes 'D' in
      while Time.(Proc.now () < !deadline) do
        (* absorb ACKs that arrived *)
        serve_pending sys v net ~on_request:(fun _ -> ());
        (* TCP window: cap the in-flight ring backlog *)
        if Net.tx_backlog net >= 32 then Guest.compute v (Time.of_us 2)
        else guest_send sys v net payload
      done);
  System.run sys;
  (* throughput over the interval that actually carried traffic (packets
     in flight at the deadline still drain onto the wire) *)
  let span = Time.diff !last_delivery !started in
  let secs = Time.to_sec_f (Time.max span duration) in
  { mbps = float_of_int (!received * 8) /. secs /. 1e6; packets = !packets }
