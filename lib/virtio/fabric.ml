(* Point-to-point network fabric: the 10 GbE link between the host NIC and
   the separate client machine of Table 4. Delivery pays one-way
   propagation (wire + switch + remote stack) plus serialization at link
   bandwidth; the link serializes packets (a busy link queues). *)

module Simulator = Svt_engine.Simulator
module Time = Svt_engine.Time

type endpoint = { mutable deliver : string -> unit (* invoked at arrival time *) }

type t = {
  sim : Simulator.t;
  cost : Svt_arch.Cost_model.t;
  a : endpoint;
  b : endpoint;
  mutable busy_until_ab : Time.t;
  mutable busy_until_ba : Time.t;
}

let create sim ~cost =
  {
    sim;
    cost;
    a = { deliver = ignore };
    b = { deliver = ignore };
    busy_until_ab = Time.zero;
    busy_until_ba = Time.zero;
  }

let endpoint_a t = t.a
let endpoint_b t = t.b
let on_deliver ep f = ep.deliver <- f

let send t ~from (pkt : string) =
  let len = String.length pkt in
  let serialize = Svt_arch.Cost_model.wire_serialize t.cost ~bytes:len in
  let now = Simulator.now t.sim in
  let a_to_b = from == t.a in
  let start =
    Time.max now (if a_to_b then t.busy_until_ab else t.busy_until_ba)
  in
  let busy_until = Time.add start serialize in
  if a_to_b then t.busy_until_ab <- busy_until
  else t.busy_until_ba <- busy_until;
  let dest = if a_to_b then t.b else t.a in
  let arrival =
    Time.add (Time.add start serialize) t.cost.Svt_arch.Cost_model.nic_wire_latency
  in
  ignore
    (Simulator.schedule_at t.sim ~time:arrival (fun () -> dest.deliver pkt))
