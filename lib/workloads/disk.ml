(* Disk benchmarks over virtio-blk (paper §6.2):

   ioping — 512 B random reads or writes at queue depth 1 (latency);
   fio    — 4 KB random reads or writes at queue depth 8 (bandwidth).

   Writes issue a data transfer followed by a flush/journal-commit request
   (two full virtio round trips), which is what makes them both slower and
   more accelerable: most of the extra cost is exit traffic. *)

module Time = Svt_engine.Time
module Proc = Svt_engine.Simulator.Proc
module System = Svt_core.System
module Guest = Svt_core.Guest
module Vcpu = Svt_hyp.Vcpu
module Blk = Svt_virtio.Virtio_blk
module Ramdisk = Svt_virtio.Ramdisk

type op = Randread | Randwrite

(* Submit one request; kick only when the backend has parked. *)
let submit_and_kick sys vcpu blk ~kind ~sector ~count ?data () =
  let cost = System.cost sys in
  Guest.syscall vcpu cost;
  (match Blk.driver_submit blk ~kind ~sector ~count ?data () with
  | Some _ -> ()
  | None -> failwith "disk: queue full");
  if Blk.need_kick blk then Guest.mmio_write32 vcpu (Blk.doorbell_gpa blk) 1

(* Wait (HLT) until at least one completion is collectable. [arm] models
   the tickless kernel reprogramming the TSC deadline around a real idle
   period (QD1 latency runs); at high queue depth the timer is left alone
   because the next wake-up is an I/O interrupt anyway. *)
let await_completion ?(arm = false) sys vcpu blk =
  let rec go () =
    match Blk.driver_collect blk with
    | Some c -> c
    | None ->
        if arm then Guest.arm_timer vcpu ~after:(Time.of_ms 1);
        Guest.hlt vcpu;
        ignore sys;
        go ()
  in
  go ()

(* Wait for a completion by spinning on the used ring (the flush tail of a
   write commits within microseconds; sleeping would cost more). *)
let poll_completion vcpu blk =
  let rec go () =
    match Blk.driver_collect blk with
    | Some c -> c
    | None ->
        Guest.compute vcpu (Time.of_ns 500);
        go ()
  in
  go ()

let one_io sys vcpu blk rng ~op ~bytes =
  let sectors = max 1 (bytes / Ramdisk.sector_size) in
  let sector =
    Svt_engine.Prng.int rng (Svt_virtio.Virtio_blk.queue_size * 64) * sectors
  in
  match op with
  | Randread ->
      submit_and_kick sys vcpu blk ~kind:Blk.Read ~sector ~count:sectors ();
      ignore (await_completion ~arm:true sys vcpu blk)
  | Randwrite ->
      let data = Bytes.make bytes 'W' in
      submit_and_kick sys vcpu blk ~kind:Blk.Write ~sector ~count:sectors ~data ();
      ignore (await_completion ~arm:true sys vcpu blk);
      (* journal commit: a flush barrier, completed fast enough that the
         driver polls it instead of sleeping *)
      submit_and_kick sys vcpu blk ~kind:Blk.Flush ~sector ~count:1 ();
      ignore (poll_completion vcpu blk)

type latency_result = { mean_us : float; p99_us : float }

(* ioping: serial 512 B accesses; reports per-op latency. *)
let run_ioping ?(ops = 300) ~op sys =
  let vcpu = System.vcpu0 sys in
  let blk, _disk = System.attach_blk sys in
  let rng = Svt_engine.Prng.create 42 in
  let lat = Svt_stats.Histogram.create () in
  Vcpu.register_isr vcpu ~vector:System.blk_vector (fun () -> ());
  Vcpu.spawn_program vcpu (fun v ->
      for _ = 1 to ops do
        let t0 = Proc.now () in
        one_io sys v blk rng ~op ~bytes:512;
        Svt_stats.Histogram.add lat (Time.to_ns (Time.diff (Proc.now ()) t0))
      done);
  System.run sys;
  {
    mean_us = Svt_stats.Histogram.mean lat /. 1000.0;
    p99_us = float_of_int (Svt_stats.Histogram.p99 lat) /. 1000.0;
  }

type bandwidth_result = { kb_per_sec : float }

(* fio: 4 KB random accesses at queue depth 8; reports throughput. The
   guest keeps [depth] requests in flight, collecting completions as they
   interrupt. *)
let run_fio ?(ops = 600) ?(depth = 8) ~op sys =
  let vcpu = System.vcpu0 sys in
  let blk, _disk = System.attach_blk sys in
  let rng = Svt_engine.Prng.create 43 in
  let bytes = 4096 in
  let sectors = bytes / Ramdisk.sector_size in
  Vcpu.register_isr vcpu ~vector:System.blk_vector (fun () -> ());
  let elapsed = ref Time.zero in
  (* each write is a data request plus a journal-commit request *)
  let requests_per_op = match op with Randread -> 1 | Randwrite -> 2 in
  let total_requests = ops * requests_per_op in
  Vcpu.spawn_program vcpu (fun v ->
      let t0 = Proc.now () in
      let submitted = ref 0 and completed = ref 0 in
      let submit_one () =
        let sector = Svt_engine.Prng.int rng 30_000 * sectors in
        (match op with
        | Randread ->
            submit_and_kick sys v blk ~kind:Blk.Read ~sector ~count:sectors ()
        | Randwrite ->
            if !submitted mod 2 = 0 then begin
              (* sustained buffered writes dirty fresh page-cache pages;
                 their first touch faults in the EPT *)
              Guest.page_fault v
                (Svt_mem.Addr.Gpa.of_int ((0x100000 + !submitted) * 4096));
              submit_and_kick sys v blk ~kind:Blk.Write ~sector ~count:sectors
                ~data:(Bytes.make bytes 'W') ()
            end
            else
              submit_and_kick sys v blk ~kind:Blk.Flush ~sector ~count:1 ());
        incr submitted
      in
      for _ = 1 to min depth total_requests do
        submit_one ()
      done;
      while !completed < total_requests do
        match Blk.driver_collect blk with
        | Some _ ->
            incr completed;
            if !submitted < total_requests then submit_one ()
        | None -> Guest.hlt v
      done;
      elapsed := Time.diff (Proc.now ()) t0);
  System.run sys;
  let secs = Time.to_sec_f !elapsed in
  { kb_per_sec = float_of_int (ops * bytes / 1024) /. secs }
