module Obs = Zipchannel_obs.Obs

(* Snappy raw format: a varint decompressed length, then a stream of
   tagged elements.  The low 2 bits of each tag byte select the element:
   00 a literal run (length in the high 6 bits, 60..63 meaning "read that
   many minus 59 little-endian length bytes"), 01 a copy with a 1-byte
   offset (3-bit length, 11-bit offset), 10 a copy with a 2-byte
   little-endian offset (6-bit length), 11 a copy with a 4-byte offset
   (decoded, never emitted). *)

let min_match = 4
let max_copy_len = 64
let max_offset = 0xffff

(* snappy's multiplicative match-finder hash: like LZ4's, the table index
   is a pure function of 4 raw input bytes and feeds a load and a store —
   the hash-head gadget shape. *)
let hash_bits = 14
let hash_size = 1 lsl hash_bits
let hash_const = 0x1e35a7bd

let hash_of_quad v = ((v * hash_const) land 0xffffffff) lsr (32 - hash_bits)

let quad b i =
  Char.code (Bytes.unsafe_get b i)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 3)) lsl 24)

let m_bytes_in = Obs.Metrics.counter "kernel.snappy.bytes_in"
let m_bytes_out = Obs.Metrics.counter "kernel.snappy.bytes_out"
let m_probes = Obs.Metrics.counter "kernel.snappy.htab_probes"

let put_byte buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_varint buf v =
  let rest = ref v in
  while !rest >= 0x80 do
    put_byte buf (0x80 lor (!rest land 0x7f));
    rest := !rest lsr 7
  done;
  put_byte buf !rest

let emit_literals buf src ~anchor ~len =
  if len > 0 then begin
    let v = len - 1 in
    if v < 60 then put_byte buf (v lsl 2)
    else begin
      let n_bytes =
        if v < 1 lsl 8 then 1
        else if v < 1 lsl 16 then 2
        else if v < 1 lsl 24 then 3
        else 4
      in
      put_byte buf ((59 + n_bytes) lsl 2);
      for k = 0 to n_bytes - 1 do
        put_byte buf ((v lsr (8 * k)) land 0xff)
      done
    end;
    Buffer.add_subbytes buf src anchor len
  end

(* one copy element, [len <= 64]; the caller splits longer matches *)
let emit_copy buf ~offset ~len =
  if len >= 4 && len <= 11 && offset < 1 lsl 11 then begin
    put_byte buf (((offset lsr 8) lsl 5) lor ((len - 4) lsl 2) lor 1);
    put_byte buf (offset land 0xff)
  end
  else begin
    put_byte buf (((len - 1) lsl 2) lor 2);
    put_byte buf (offset land 0xff);
    put_byte buf (offset lsr 8)
  end

let compress src =
  Obs.with_span "snappy.compress"
  @@ fun _ ->
  let n = Bytes.length src in
  let buf = Buffer.create (n + (n / 6) + 16) in
  put_varint buf n;
  let probes = ref 0 in
  if n > 0 then begin
    let table = Array.make hash_size (-1) in
    let anchor = ref 0 in
    let i = ref 0 in
    let scan_limit = n - min_match in
    while !i <= scan_limit do
      let h = hash_of_quad (quad src !i) in
      let candidate = table.(h) in
      incr probes;
      table.(h) <- !i;
      if
        candidate >= 0
        && !i - candidate <= max_offset
        && quad src candidate = quad src !i
      then begin
        let len = ref min_match in
        while
          !i + !len < n
          && Bytes.unsafe_get src (candidate + !len)
             = Bytes.unsafe_get src (!i + !len)
        do
          incr len
        done;
        emit_literals buf src ~anchor:!anchor ~len:(!i - !anchor);
        let offset = !i - candidate in
        let rest = ref !len in
        while !rest > 0 do
          let chunk = min !rest max_copy_len in
          emit_copy buf ~offset ~len:chunk;
          rest := !rest - chunk
        done;
        i := !i + !len;
        anchor := !i
      end
      else incr i
    done;
    emit_literals buf src ~anchor:!anchor ~len:(n - !anchor)
  end;
  let out = Buffer.to_bytes buf in
  Obs.Metrics.add m_bytes_in n;
  Obs.Metrics.add m_bytes_out (Bytes.length out);
  if Obs.enabled () then Obs.Metrics.add m_probes !probes;
  out

(* Decompression-bomb guard: the densest element is a 2-byte-offset copy —
   3 payload bytes emitting 64 output bytes — so a declared length beyond
   [22 * payload + 8] cannot be honest.  Checked before allocation;
   saturates instead of overflowing. *)
let max_declared_length ~payload_bytes =
  if payload_bytes > (max_int - 8) / 22 then max_int
  else (22 * payload_bytes) + 8

let decompress_result data =
  let len = Bytes.length data in
  let pos = ref 0 in
  Codec_error.protect ~codec:"snappy" ~offset:(fun () -> !pos)
  @@ fun () ->
  let byte () =
    if !pos >= len then failwith "Snappy.decompress: truncated input";
    let v = Char.code (Bytes.unsafe_get data !pos) in
    incr pos;
    v
  in
  (* 32-bit varint: at most 5 bytes, the last holding 4 bits *)
  let n =
    let v = ref 0 and shift = ref 0 and stop = ref false in
    while not !stop do
      if !shift > 28 then failwith "Snappy.decompress: malformed length varint";
      let b = byte () in
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then stop := true
    done;
    !v
  in
  if n > max_declared_length ~payload_bytes:(len - !pos) then
    failwith
      "Snappy.decompress: declared length exceeds what the input can encode";
  let out = Bytes.create n in
  let op = ref 0 in
  let copy ~offset ~count =
    if offset = 0 || offset > !op then
      failwith "Snappy.decompress: invalid copy offset";
    if count > n - !op then
      failwith "Snappy.decompress: copy exceeds declared length";
    let from = !op - offset in
    for k = 0 to count - 1 do
      Bytes.unsafe_set out (!op + k) (Bytes.unsafe_get out (from + k))
    done;
    op := !op + count
  in
  while !op < n do
    let tag = byte () in
    match tag land 0x3 with
    | 0 ->
        let v = tag lsr 2 in
        let lit_len =
          if v < 60 then v + 1
          else begin
            let n_bytes = v - 59 in
            let r = ref 0 in
            for k = 0 to n_bytes - 1 do
              r := !r lor (byte () lsl (8 * k))
            done;
            !r + 1
          end
        in
        if lit_len > n - !op then
          failwith "Snappy.decompress: literal run exceeds declared length";
        if !pos + lit_len > len then
          failwith "Snappy.decompress: truncated input";
        Bytes.blit data !pos out !op lit_len;
        pos := !pos + lit_len;
        op := !op + lit_len
    | 1 ->
        let lo = byte () in
        copy
          ~offset:(((tag lsr 5) lsl 8) lor lo)
          ~count:(4 + ((tag lsr 2) land 0x7))
    | 2 ->
        (* explicit lets: operand evaluation order of [lor] is unspecified *)
        let lo = byte () in
        let offset = lo lor (byte () lsl 8) in
        copy ~offset ~count:((tag lsr 2) + 1)
    | _ ->
        let b0 = byte () in
        let b1 = byte () in
        let b2 = byte () in
        let b3 = byte () in
        let offset = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
        copy ~offset ~count:((tag lsr 2) + 1)
  done;
  if !pos < len then
    failwith "Snappy.decompress: trailing bytes after stream end";
  out

let decompress data = Codec_error.unwrap (decompress_result data)
