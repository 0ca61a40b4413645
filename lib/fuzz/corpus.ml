(* The corpus: kept inputs in memory, and their persistent form as
   campaign-ledger rows. A fuzz journal is an ordinary JSONL ledger —
   CRC'd rows, `Ledger.recover`-able — whose rows come in three
   flavours distinguished by the point's workload name:

     "fuzz"           a kept (new-coverage) input; `data.input` is the
                      serialized input, `data.cov` its coverage bitmap
     "fuzz-violation" a violating input with its shrunk reproducer
     "fuzz-progress"  a round barrier: everything before it is a
                      complete round, so resume restarts from
                      `fuzz.next_index`

   Keeping the corpus in the campaign ledger (rather than a bespoke
   format) is what makes resume free: the journal machinery already
   knows how to salvage the longest intact prefix of a torn file. *)

module Ledger = Svt_campaign.Ledger
module Spec = Svt_campaign.Spec
module Coverage = Svt_obs.Coverage
module Prng = Svt_engine.Prng

type t = { mutable inputs : Input.t array; mutable n : int }

let create () = { inputs = Array.make 16 Input.empty; n = 0 }
let size t = t.n

let add t input =
  if t.n = Array.length t.inputs then begin
    let bigger = Array.make (2 * t.n) Input.empty in
    Array.blit t.inputs 0 bigger 0 t.n;
    t.inputs <- bigger
  end;
  t.inputs.(t.n) <- input;
  t.n <- t.n + 1

let pick t rng = if t.n = 0 then None else Some t.inputs.(Prng.int rng t.n)

(* --- ledger rows --------------------------------------------------------- *)

(* Every row is content-addressed the campaign way: the input's global
   index rides the point's [seed] axis and the plan rides [fault], so
   run_ids are unique and stable. Mode/level on the point are
   conventional (execution spans all three modes). *)
let point ~workload ~index ~fault =
  Spec.point ~workload ~seed:index ~fault Svt_core.Mode.Baseline

let base_entry ~workload ~index ~fault ~status ~error ~metrics ~data =
  let p = point ~workload ~index ~fault in
  {
    Ledger.run_id = Spec.run_id p;
    point = p;
    status;
    error;
    wall_s = 0.0;  (* pinned: fuzz ledgers must be byte-reproducible *)
    metrics;
    data;
  }

let kept_entry ~index ~bits_added ~events ~cov input =
  base_entry ~workload:"fuzz" ~index
    ~fault:(Svt_fault.Plan.to_string input.Input.plan)
    ~status:"ok" ~error:None
    ~metrics:
      [
        ("fuzz.index", float_of_int index);
        ("fuzz.bits_added", float_of_int bits_added);
        ("fuzz.events", float_of_int events);
      ]
    ~data:
      [ ("input", Input.to_string input); ("cov", Coverage.to_hex cov) ]

let violation_entry ~index ~violation ~input ~shrunk =
  base_entry ~workload:"fuzz-violation" ~index
    ~fault:(Svt_fault.Plan.to_string input.Input.plan)
    ~status:"failed" ~error:(Some violation)
    ~metrics:
      [
        ("fuzz.index", float_of_int index);
        ("fuzz.shrunk_steps", float_of_int (Input.steps shrunk));
      ]
    ~data:
      [
        ("input", Input.to_string input);
        ("shrunk", Input.to_string shrunk);
        ("trace", String.concat "\n" (Shrink.trace shrunk));
      ]

let progress_entry ~next_index ~execs ~kept ~violations ~cov_bits ~events =
  base_entry ~workload:"fuzz-progress" ~index:next_index ~fault:""
    ~status:"ok" ~error:None
    ~metrics:
      [
        ("fuzz.next_index", float_of_int next_index);
        ("fuzz.execs", float_of_int execs);
        ("fuzz.kept", float_of_int kept);
        ("fuzz.violations", float_of_int violations);
        ("fuzz.cov_bits", float_of_int cov_bits);
        ("fuzz.events", float_of_int events);
      ]
    ~data:[]

type row =
  | Kept of { index : int; input : Input.t; cov : Coverage.t }
  | Violation of { index : int; input : Input.t; shrunk : Input.t }
  | Progress of {
      next_index : int;
      execs : int;
      kept : int;
      violations : int;
      events : int;
    }

let metric_int e name =
  let v = Ledger.metric e name in
  if Float.is_nan v then Error (Printf.sprintf "row missing %s" name)
  else Ok (int_of_float v)

let data_field e name =
  match List.assoc_opt name e.Ledger.data with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "row missing data.%s" name)

let classify (e : Ledger.entry) =
  let ( let* ) = Result.bind in
  match e.Ledger.point.Spec.workload with
  | "fuzz" ->
      let* index = metric_int e "fuzz.index" in
      let* input_s = data_field e "input" in
      let* input = Input.of_string input_s in
      let* cov_s = data_field e "cov" in
      Ok (Some (Kept { index; input; cov = Coverage.of_hex cov_s }))
  | "fuzz-violation" ->
      let* index = metric_int e "fuzz.index" in
      let* input_s = data_field e "input" in
      let* input = Input.of_string input_s in
      let* shrunk_s = data_field e "shrunk" in
      let* shrunk = Input.of_string shrunk_s in
      Ok (Some (Violation { index; input; shrunk }))
  | "fuzz-progress" ->
      let* next_index = metric_int e "fuzz.next_index" in
      let* execs = metric_int e "fuzz.execs" in
      let* kept = metric_int e "fuzz.kept" in
      let* violations = metric_int e "fuzz.violations" in
      let* events = metric_int e "fuzz.events" in
      Ok (Some (Progress { next_index; execs; kept; violations; events }))
  | _ -> Ok None
