(* Client side of the zc serve wire protocol, single-threaded: one
   select loop uploads the request and downloads the reply at the same
   time, since the daemon streams output while input is still arriving
   (a send-everything-then-read client can deadlock on socket buffers).

     client -> "ZCRQ" | op (1 compress, 2 decompress) | codec id |
               frame_size u32 LE | payload... | shutdown(SEND)
     server -> "ZCOK" | result stream   or   "ZCER" | message *)

module Frame = Zipchannel.Frame

type op = Compress | Decompress

let header ~op ~codec ~frame_size =
  let h = Bytes.create 10 in
  Bytes.blit_string "ZCRQ" 0 h 0 4;
  Bytes.set h 4 (match op with Compress -> '\001' | Decompress -> '\002');
  Bytes.set h 5 (Char.chr (Frame.codec_id codec));
  Bytes.set_int32_le h 6 (Int32.of_int frame_size);
  h

let exchange fd request =
  let out = Buffer.create (Bytes.length request) in
  let buf = Bytes.create 65536 in
  let sent = ref 0 and eof = ref false in
  let total = Bytes.length request in
  while not !eof do
    let want_write = !sent < total in
    let r, w, _ = Unix.select [ fd ] (if want_write then [ fd ] else []) [] (-1.) in
    if w <> [] then begin
      let n = Unix.single_write fd request !sent (min 65536 (total - !sent)) in
      sent := !sent + n;
      if !sent = total then Unix.shutdown fd Unix.SHUTDOWN_SEND
    end;
    if r <> [] then begin
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then eof := true else Buffer.add_subbytes out buf 0 n
    end
  done;
  (!sent, Buffer.to_bytes out)

(* One request on a fresh connection.  [Ok] carries the reply stream
   after the "ZCOK" tag; every other outcome is an [Error]. *)
let request ~addr ~op ~codec ~frame_size payload =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      try
        Unix.connect fd addr;
        Unix.set_nonblock fd;
        let request = Bytes.cat (header ~op ~codec ~frame_size) payload in
        let sent, reply = exchange fd request in
        let n = Bytes.length reply in
        if n < 4 then Error (Printf.sprintf "short reply (%d bytes)" n)
        else
          match Bytes.sub_string reply 0 4 with
          | "ZCOK" when sent = Bytes.length request -> Ok (Bytes.sub reply 4 (n - 4))
          | "ZCOK" -> Error "reply ended before the upload did"
          | "ZCER" -> Error ("ZCER " ^ Bytes.sub_string reply 4 (n - 4))
          | _ -> Error "malformed reply"
      with Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
