(* Seeded request mix for the streaming workloads.

   One pass is every combination of codec, content kind and size stratum
   once, each with its own seeded bytes.  The size is the log-midpoint of
   its stratum plus a seeded 0..63 bytes.  Stratifying keeps the work per
   codec, kind and size the same on every seed, so seeds change the bytes
   and the order but not how much of each kind of work a pass holds. *)

module Frame = Zipchannel.Frame
module Prng = Zipchannel.Util.Prng
module Lipsum = Zipchannel.Util.Lipsum

type content = Paragraphs | Repetitive of int | Random

type op = { codec : Frame.codec; content : content; payload : bytes }

let contents =
  [ Paragraphs; Repetitive 1; Repetitive 2; Repetitive 3; Repetitive 4;
    Repetitive 5; Random ]

let content_name = function
  | Paragraphs -> "paragraphs"
  | Repetitive l -> Printf.sprintf "repetitive-%d" l
  | Random -> "random"

(* Payload sizes span 4 KiB .. 256 KiB (log2 12 .. 18) in five strata,
   so some payloads span several 64 KiB frames. *)
let strata = 5
let log2_min = 12.
let log2_max = 18.

let codecs_of_workload = function
  | "stream-lz" -> [ Frame.Deflate; Frame.Gzip; Frame.Lzw ]
  | "stream-bwt" -> [ Frame.Bzip2 ]
  | w -> invalid_arg ("Ops: no stream workload " ^ w)

let paragraphs prng size =
  let b = Buffer.create (size + 1024) in
  while Buffer.length b < size do
    Buffer.add_string b (Lipsum.paragraph prng);
    Buffer.add_char b '\n'
  done;
  Buffer.sub b 0 size

let make prng content size =
  match content with
  | Paragraphs -> Bytes.of_string (paragraphs prng size)
  | Repetitive level -> Bytes.of_string (Lipsum.repetitive_file prng ~level ~size)
  | Random -> Prng.bytes prng size

let size_in_stratum prng j =
  let w = (log2_max -. log2_min) /. float_of_int strata in
  let mid = log2_min +. (w *. (float_of_int j +. 0.5)) in
  int_of_float (2. ** mid) + Prng.int prng 64

(* The ops of one pass.  Requests cycle through the workload's codecs in
   order (deflate, gzip, lzw, deflate, ...); each codec's own
   (content, stratum) combinations come in a seeded order. *)
let pass ~workload ~seed =
  let prng = Prng.create ~seed () in
  let codecs = Array.of_list (codecs_of_workload workload) in
  let per_codec =
    Array.map
      (fun codec ->
        let combos =
          Array.of_list
            (List.concat_map
               (fun content -> List.init strata (fun j -> (content, j)))
               contents)
        in
        Prng.shuffle prng combos;
        Array.map
          (fun (content, j) ->
            { codec; content; payload = make prng content (size_in_stratum prng j) })
          combos)
      codecs
  in
  let n = Array.length per_codec.(0) in
  Array.init (n * Array.length codecs) (fun i ->
      per_codec.(i mod Array.length codecs).(i / Array.length codecs))
