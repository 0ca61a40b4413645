(* Crash-consistent ledger writer. Rows are appended in completion order
   with a per-line CRC32 ({!Ledger.line_of_entry_crc}) and the channel is
   flushed every [checkpoint_every] rows, so a killed campaign leaves a
   file whose longest intact prefix is exactly the checkpointed rows
   (plus whatever later rows happened to reach the disk) — which is what
   {!Ledger.recover} salvages and [sweep --resume] restarts from.

   [rewrite] is the clean-completion path: the full row set is written to
   a temp file and renamed over the journal, so the final artifact is
   canonical (spec order, deduplicated) and the swap is atomic — a crash
   mid-rewrite leaves the old journal, never a half-written file. *)

type t = {
  oc : out_channel;
  checkpoint_every : int;
  mutable unflushed : int;
}

let create ?(checkpoint_every = 1) ?(truncate = false) path =
  let flags =
    [ Open_creat; Open_wronly ]
    @ if truncate then [ Open_trunc ] else [ Open_append ]
  in
  {
    oc = open_out_gen flags 0o644 path;
    checkpoint_every = max 1 checkpoint_every;
    unflushed = 0;
  }

let append t e =
  output_string t.oc (Ledger.line_of_entry_crc e);
  output_char t.oc '\n';
  t.unflushed <- t.unflushed + 1;
  if t.unflushed >= t.checkpoint_every then begin
    Stdlib.flush t.oc;
    t.unflushed <- 0
  end

let close t = close_out t.oc

let with_journal ?checkpoint_every ?truncate path f =
  let t = create ?checkpoint_every ?truncate path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let rewrite path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out_gen [ Open_creat; Open_wronly; Open_trunc ] 0o644 tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Ledger.line_of_entry_crc e);
          output_char oc '\n')
        entries);
  Sys.rename tmp path
