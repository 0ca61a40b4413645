(* Crash-consistent ledger writer. Rows are appended in completion order
   with a per-line CRC32 ({!Ledger.line_of_entry_crc}) and the channel is
   flushed after every row, so a killed campaign leaves a file whose
   longest intact prefix is every row appended before the kill — which
   is what {!Ledger.recover} salvages and [sweep --resume] restarts from.

   [rewrite] is the clean-completion path: the full row set is written to
   a temp file and renamed over the journal, so the final artifact is
   canonical (spec order, deduplicated) and the swap is atomic — a crash
   mid-rewrite leaves the old journal, never a half-written file. *)

type t = out_channel

let create ?(truncate = false) path =
  let flags =
    [ Open_creat; Open_wronly ]
    @ if truncate then [ Open_trunc ] else [ Open_append ]
  in
  open_out_gen flags 0o644 path

let append oc e =
  output_string oc (Ledger.line_of_entry_crc e);
  output_char oc '\n';
  Stdlib.flush oc

let close = close_out

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
