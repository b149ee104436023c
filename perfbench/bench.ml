(* Workload driver behind run.py.  Two modes, each printing one JSON
   object as its last stdout line:

     bench.exe paper  --seed N --seconds S --trace 0|1 [--setup-only]
     bench.exe stream --workload stream-lz|stream-bwt --seed N
                      --seconds S --trace 0|1 --segments K --jobs J

   [paper] runs E1-E19 in this process, with rounds of the short ones
   around and between the long ones for about S seconds to time them; it
   prints READY first so the parent can time process start-up (module
   initialisation included).
   [stream] is the closed-loop client of K [zc serve] daemons in turn,
   each started by run.py with [--jobs J]: it reads "PORT <p>" on stdin
   for each and prints SEGMENT when done with it. *)

module Obs = Zipchannel.Obs
module Experiments = Zipchannel.Experiments
module Frame = Zipchannel.Frame
module Compress = Zipchannel.Compress
module Json = Zipchannel.Obs_export.Json
module Tally = Perfbench.Tally
module Spans = Perfbench.Spans
module Ops = Perfbench.Ops
module Wire = Perfbench.Wire

let now_ns = Obs.now_ns
let secs ns = float_of_int ns /. 1e9
let median = Perfbench.Stats.median
let tail = Perfbench.Stats.tail

let vm_hwm_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.

(* A fixed integer loop, timed: the host-speed fingerprint that travels
   with every result.  Best of three, so one preemption does not set it. *)
let calibration_ns () =
  let once () =
    let t0 = now_ns () in
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + (i land 0xffff)
    done;
    ignore (Sys.opaque_identity !x);
    now_ns () - t0
  in
  List.fold_left min max_int [ once (); once (); once () ]

(* ------------------------------------------------------------------ *)
(* Output: one JSON object, the last stdout line *)

let num x = Json.Num x
let int n = Json.Num (float_of_int n)
let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let tail_info ~p ~beyond ~samples =
  ("tail", Json.Obj [ ("percentile", num p); ("beyond", int beyond); ("samples", int samples) ])

let emit ~tally ~metrics ~layers ~extra =
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("attempted", int tally.Tally.attempted);
             ("failed", int tally.failed);
             ("notes", Json.Arr (List.map (fun s -> Json.Str s) (Tally.notes tally)));
             ("metrics", nums metrics);
             ("layers", nums layers);
             ( "host",
               Json.Obj
                 [ ("ocaml", Json.Str Sys.ocaml_version); ("calibration_ns", int (calibration_ns ())) ] );
           ]
          @ extra)))

(* ------------------------------------------------------------------ *)
(* paper: E1-E19 through Experiments.run *)

type suite = {
  wall_ns : int;
  times : (string * int) list;
  outcomes : Experiments.outcome list;
  bytes : int * int;
}

(* Compress-layer plaintext and output bytes, from the kernels' own
   exact counters.  LZ4 is left out: E19's page store compresses one
   probe page per guess, 17-25 MB depending on the secret, which would
   make the figure follow the seed rather than the speed. *)
let codec_counters = [ "bzip2"; "deflate"; "lzw"; "snappy" ]

let kernel_bytes snap =
  let get name = Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters) in
  List.fold_left
    (fun (i, o) c ->
      (i + get ("kernel." ^ c ^ ".bytes_in"), o + get ("kernel." ^ c ^ ".bytes_out")))
    (0, 0) codec_counters

(* One checked run of experiment [id] with jobs 1 and default sizes,
   output into an in-memory formatter: one op.  Returns its time and
   outcome. *)
let run_experiment ~seed ~tally ppf buf id =
  let s = now_ns () in
  let r =
    Obs.with_span ("bench." ^ id) (fun () ->
        match Experiments.run ~seed ~jobs:1 ~id ppf with
        | Some o -> Ok o
        | None -> Error (id ^ ": unknown experiment")
        | exception e -> Error (id ^ ": " ^ Printexc.to_string e))
  in
  let dt = now_ns () - s in
  Format.pp_print_flush ppf ();
  Buffer.clear buf;
  (match r with
  | Ok o -> (
      match Tally.below_floor ~id o.Experiments.metrics with
      | [] -> Tally.record tally ~ok:true ~what:id
      | miss :: _ -> Tally.record tally ~ok:false ~what:miss)
  | Error what -> Tally.record tally ~ok:false ~what);
  (dt, r)

let formatter () =
  let buf = Buffer.create 65536 in
  (Format.formatter_of_buffer buf, buf)

(* One pass of E1-E19 in order.  [between id] runs after experiment
   [id] and is not part of the pass: [wall_ns] is the sum of the
   experiments' times and [bytes] the kernels' byte counts during them. *)
let run_suite ?(between = ignore) ~seed ~tally () =
  let ppf, buf = formatter () in
  let rows =
    List.map
      (fun id ->
        let i0, o0 = kernel_bytes (Obs.Metrics.snapshot ()) in
        let dt, r = run_experiment ~seed ~tally ppf buf id in
        let i1, o1 = kernel_bytes (Obs.Metrics.snapshot ()) in
        between id;
        (id, dt, r, (i1 - i0, o1 - o0)))
      Experiments.ids
  in
  {
    wall_ns = List.fold_left (fun a (_, dt, _, _) -> a + dt) 0 rows;
    times = List.map (fun (id, dt, _, _) -> (id, dt)) rows;
    outcomes = List.filter_map (fun (_, _, r, _) -> Result.to_option r) rows;
    bytes = List.fold_left (fun (i, o) (_, _, _, (di, dout)) -> (i + di, o + dout)) (0, 0) rows;
  }

(* The experiments that take over a second each on a 2-core host.  The
   other 14 are rerun to time them. *)
let long_experiments = [ "E8"; "E10"; "E11"; "E15"; "E17" ]

(* Each experiment's latency is its fastest run.  The runs of one
   experiment repeat the same work (same seed, same sizes), so their
   spread is the host's: other tenants slow the cache-bound experiments
   around the median, 100-200 ms, by up to half for seconds at a time,
   and that only ever adds time.  The short experiments run in rounds,
   each run checked like the pass: one round before the pass, one after
   each long experiment of it, and more after it until the rounds have
   taken [seconds], so their runs are spread over the whole run.
   Returns the pass, the latencies in ms in [Experiments.ids] order, and
   the number of rounds. *)
let timed_suite ~seed ~tally ~seconds =
  let runs = List.map (fun id -> (id, ref [])) Experiments.ids in
  let short = List.filter (fun (id, _) -> not (List.mem id long_experiments)) runs in
  let ppf, buf = formatter () in
  let spent = ref 0 and rounds = ref 0 in
  let round () =
    List.iter
      (fun (id, ts) ->
        let dt, _ = run_experiment ~seed ~tally ppf buf id in
        spent := !spent + dt;
        ts := dt :: !ts)
      short;
    incr rounds
  in
  round ();
  let s = run_suite ~seed ~tally ~between:(fun id -> if List.mem id long_experiments then round ()) () in
  List.iter (fun (id, ts) -> ts := List.assoc id s.times :: !ts) runs;
  while secs !spent < seconds do
    round ()
  done;
  (s, List.map (fun (_, ts) -> secs (List.fold_left min max_int !ts) *. 1000.) runs, !rounds)

let headline_accuracy outcomes =
  let rate (id, metric) =
    match List.find_opt (fun o -> o.Experiments.id = id) outcomes with
    | Some o -> Option.value ~default:0. (List.assoc_opt metric o.metrics)
    | None -> 0.
  in
  List.fold_left (fun acc h -> acc +. rate h) 0. Tally.headline
  /. float_of_int (List.length Tally.headline)

(* Span names to per-layer rows.  Unmapped span names land in
   [spans.other_s], so the rows always add up. *)
let layer_of_span name =
  let starts p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  match name with
  | "mlp.train" -> "classifier.mlp_train_s"
  | "sgx.attack" | "sgx.lzw_attack" | "sgx.zlib_attack" -> "attack.sgx_s"
  | "recovery.lzw" | "recovery.bzip2" -> "attack.recovery_s"
  | "bwt.sort" -> "compress.bwt_sort_s"
  | "bzip2.block" -> "compress.bzip2_block_s"
  | "survey.case" | "survey.run" -> "taintchannel.survey_s"
  | _ when starts "experiment." || starts "bench." -> "experiment.self_s"
  | _ -> "spans.other_s"

let paper_layer_rows = [
  "classifier.mlp_train_s"; "attack.sgx_s"; "attack.recovery_s"; "compress.bwt_sort_s";
  "compress.bzip2_block_s"; "taintchannel.survey_s"; "experiment.self_s"; "spans.other_s" ]

let paper ~seed ~seconds ~trace =
  let tally = Tally.create () in
  (* Obs metrics are on in both passes: the kernels' byte counters give
     the paper workload its throughput and ratio.  Tracing is on only in
     the traced pass. *)
  Obs.set_enabled true;
  let s, ms, rounds = timed_suite ~seed ~tally ~seconds in
  let bytes_in, bytes_out = s.bytes in
  let tail_v, tail_p, tail_n = tail ms in
  let wall = secs s.wall_ns in
  let metrics =
    [
      ("wall_s", wall);
      ("throughput_mb_s", float_of_int bytes_in /. 1e6 /. wall);
      ("latency_p50_ms", median ms);
      ("latency_tail_ms", tail_v);
      ("ratio", float_of_int bytes_out /. float_of_int (max 1 bytes_in));
      ("accuracy", headline_accuracy s.outcomes);
      ("error_rate", Tally.error_rate tally);
      ("peak_rss_mb", vm_hwm_mb ());
    ]
  in
  let extra =
    [
      tail_info ~p:tail_p ~beyond:tail_n ~samples:(List.length ms);
      ("rounds", int rounds);
      ("latencies_ms", nums (List.map2 (fun id v -> (id, v)) Experiments.ids ms));
      ("outcomes", Json.Obj (List.map (fun o -> (o.Experiments.id, nums o.Experiments.metrics)) s.outcomes));
    ]
  in
  if not trace then emit ~tally ~metrics ~layers:[] ~extra
  else begin
    Obs.Metrics.reset ();
    let spans = Spans.create () in
    let t = Spans.record spans (fun () -> run_suite ~seed ~tally ()) in
    let snap = Obs.Metrics.snapshot () in
    let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name snap.counters)) in
    let traced_wall = secs t.wall_ns in
    let grouped =
      List.fold_left
        (fun acc name ->
          let row = layer_of_span name in
          let prev = Option.value ~default:0. (List.assoc_opt row acc) in
          (row, prev +. Spans.self_s spans name) :: List.remove_assoc row acc)
        (List.map (fun r -> (r, 0.)) paper_layer_rows)
        (Spans.names spans)
    in
    let attributed = Spans.self_sum_s spans in
    let layers =
      List.map (fun id -> ("experiment." ^ id ^ "_s", Spans.total_s spans ("bench." ^ id))) Experiments.ids
      @ grouped
      @ [
          ("classifier.epochs", counter "classifier.epochs");
          ("sgx.faults", counter "sgx.faults");
          ("cache.misses", counter "cache.misses");
          ("prime_probe.probes", counter "prime_probe.probes");
          ("taint.instructions", counter "taint.instructions");
          ("traced_wall_s", traced_wall);
          ("unattributed_s", traced_wall -. attributed);
          ("attributed_share", attributed /. traced_wall);
          ("obs.overhead_ratio", traced_wall /. wall);
        ]
    in
    let per_span =
      Json.Obj
        (List.map
           (fun n -> (n, nums [ ("self_s", Spans.self_s spans n); ("total_s", Spans.total_s spans n) ]))
           (Spans.names spans))
    in
    emit ~tally ~metrics ~layers ~extra:(("spans", per_span) :: extra)
  end

(* ------------------------------------------------------------------ *)
(* stream: closed-loop client of zc serve *)

let frame_size = Frame.default_frame_size

let round_trip ~addr (op : Ops.op) =
  match Wire.request ~addr ~op:Wire.Compress ~codec:op.codec ~frame_size op.payload with
  | Error e -> (None, Error ("compress: " ^ e))
  | Ok c -> (
      match Wire.request ~addr ~op:Wire.Decompress ~codec:op.codec ~frame_size c with
      | Error e -> (Some c, Error ("decompress: " ^ e))
      | Ok d -> (Some c, Ok d))

(* The codec call Frame makes per chunk (deflate with Frame's bounded
   match-chain frame profile, 32). *)
let chunk_compress (codec : Frame.codec) data =
  match codec with
  | Deflate -> Compress.Deflate.compress ~max_chain:32 data
  | Gzip -> Compress.Rfc1951.Gzip.compress data
  | Bzip2 -> Compress.Bzip2.compress data
  | Lzw -> Compress.Lzw.compress data

let chunk_decompress (codec : Frame.codec) data =
  match codec with
  | Deflate -> Compress.Deflate.decompress_result data
  | Gzip -> Compress.Rfc1951.Gzip.decompress_result data
  | Bzip2 -> Compress.Bzip2.decompress_result data
  | Lzw -> Compress.Lzw.decompress_result data

(* The payloads of a frame stream's data frames, in order (layout in
   frame.mli: 0x01 | ulen u32 | clen u32 | crc32 u32 | payload). *)
let frame_payloads s =
  let rec go off acc =
    if off >= Bytes.length s || Bytes.get s off <> '\001' then List.rev acc
    else
      let clen = Int32.to_int (Bytes.get_int32_le s (off + 5)) land 0xFFFFFFFF in
      let p = Bytes.sub s (off + Frame.frame_header_len) clen in
      go (off + Frame.frame_header_len + clen) (p :: acc)
  in
  go Frame.header_len []

(* In-process replay of one pass with the benchmark's spans around each
   Frame call and around the codec and CRC-32 work of each 64 KiB chunk.
   Checks that Frame reproduces the daemon's bytes and that the chunk
   calls reproduce Frame's payloads, so the rows describe the same work. *)
let replay ~jobs ~tally ~daemon_out (ops : Ops.op array) =
  Array.iteri
    (fun i (op : Ops.op) ->
      let c = Obs.with_span "frame.compress" (fun () -> Frame.compress ~jobs ~codec:op.codec op.payload) in
      let d = Obs.with_span "frame.decompress" (fun () -> Frame.decompress_result c) in
      let ok_frame =
        (match daemon_out.(i) with Some dc -> Bytes.equal dc c | None -> true)
        && (match d with Ok d -> Bytes.equal d op.payload | Error _ -> false)
      in
      let name = Frame.codec_name op.codec in
      let payloads = Array.of_list (frame_payloads c) in
      let ok_chunks = ref (Array.length payloads * frame_size >= Bytes.length op.payload) in
      Array.iteri
        (fun k p ->
          let off = k * frame_size in
          let len = min frame_size (Bytes.length op.payload - off) in
          let chunk = Bytes.sub op.payload off len in
          let cc = Obs.with_span ("compress." ^ name ^ ".enc") (fun () -> chunk_compress op.codec chunk) in
          let dd = Obs.with_span ("compress." ^ name ^ ".dec") (fun () -> chunk_decompress op.codec cc) in
          Obs.with_span "compress.crc32" (fun () ->
              ignore (Compress.Checksum.Crc32.digest cc);
              ignore (Compress.Checksum.Crc32.digest chunk));
          if not (Bytes.equal cc p && (match dd with Ok dd -> Bytes.equal dd chunk | Error _ -> false))
          then ok_chunks := false)
        payloads;
      Tally.record tally ~ok:(ok_frame && !ok_chunks)
        ~what:(Printf.sprintf "replay of op %d (%s, %s) differs" i name (Ops.content_name op.content)))
    ops

let timed f =
  let t0 = now_ns () in
  f ();
  secs (now_ns () - t0)

(* The daemon of the next segment: run.py writes "PORT <p>" on stdin once
   that daemon is ready. *)
let next_daemon () =
  match In_channel.input_line stdin with
  | Some l -> (
      match Scanf.sscanf_opt l "PORT %d" Fun.id with
      | Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | None -> prerr_endline ("bench.exe stream: expected PORT <p>, got " ^ l); exit 2)
  | None -> prerr_endline "bench.exe stream: no daemon for the next segment"; exit 2

let stream ~workload ~seed ~seconds ~segments ~trace ~jobs =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ops = Ops.pass ~workload ~seed in
  let n = Array.length ops in
  let tally = Tally.create () in
  let check i (op : Ops.op) r =
    match Tally.round_trip ~sent:op.payload r with
    | Ok () -> Tally.record tally ~ok:true ~what:""
    | Error e -> Tally.record tally ~ok:false ~what:(Printf.sprintf "op %d (%s): %s" i (Frame.codec_name op.codec) e)
  in
  let daemon_out = Array.make n None in
  let lat = ref [] and passes = ref [] and per_op = Array.make n [] in
  let plain = Array.fold_left (fun a (op : Ops.op) -> a + Bytes.length op.payload) 0 ops in
  (* The run is split over [segments] daemons in turn, each for an equal
     share of [seconds], so that run.py can take the median of their
     peak RSS; the samples of all segments are pooled. *)
  for _ = 1 to segments do
    let addr = next_daemon () in
    (* Warm-up: the first 7 ops of the pass, checked, untimed. *)
    Array.iteri (fun i op -> if i < 7 then let _, r = round_trip ~addr op in check i op r) ops;
    let t_start = now_ns () and seg_passes = ref 0 in
    while !seg_passes = 0 || secs (now_ns () - t_start) < seconds /. float_of_int segments do
      let p0 = now_ns () in
      let op_ns = ref 0 in
      Array.iteri
        (fun i op ->
          let s = now_ns () in
          let c, r = round_trip ~addr op in
          let dt = now_ns () - s in
          op_ns := !op_ns + dt;
          lat := (secs dt *. 1000.) :: !lat;
          per_op.(i) <- secs dt :: per_op.(i);
          if !passes = [] then daemon_out.(i) <- c;
          check i op r)
        ops;
      passes := (secs (now_ns () - p0), secs !op_ns) :: !passes;
      incr seg_passes
    done;
    print_endline "SEGMENT"
  done;
  (* The time of one pass, built from medians so that a stall in one
     pass does not set it: each op's median over the passes, plus the
     median of the client's own time between ops. *)
  let ops_total = Array.fold_left (fun a ts -> a +. median ts) 0. per_op in
  let wall = ops_total +. median (List.map (fun (w, o) -> w -. o) !passes) in
  let compressed =
    Array.fold_left (fun a c -> a + match c with Some c -> Bytes.length c | None -> 0) 0 daemon_out
  in
  let tail_v, tail_p, tail_n = tail !lat in
  let ok = tally.attempted - tally.failed in
  let metrics =
    [
      ("wall_s", wall);
      ("throughput_mb_s", float_of_int plain /. 1e6 /. wall);
      ("latency_p50_ms", median !lat);
      ("latency_tail_ms", tail_v);
      ("ratio", float_of_int compressed /. float_of_int plain);
      ("accuracy", float_of_int ok /. float_of_int tally.attempted);
      ("error_rate", Tally.error_rate tally);
    ]
  in
  let extra =
    [
      tail_info ~p:tail_p ~beyond:tail_n ~samples:(List.length !lat);
      ("passes", int (List.length !passes));
      ("ops_per_pass", int n);
      ("plaintext_bytes_per_pass", int plain);
    ]
  in
  if not trace then emit ~tally ~metrics ~layers:[] ~extra
  else begin
    (* The rows split the client-observed op time of a pass; the rest of
       [wall] is client bookkeeping. *)
    let untraced = timed (fun () -> replay ~jobs ~tally ~daemon_out ops) in
    let spans = Spans.create () in
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_collections in
    let traced = timed (fun () -> Spans.record spans (fun () -> replay ~jobs ~tally ~daemon_out ops)) in
    let minor = Gc.minor_words () -. minor0 and major = (Gc.quick_stat ()).major_collections - major0 in
    (* Frame compression at jobs 1 against the daemon's jobs, op by op. *)
    let t1 = ref 0. and tj = ref 0. in
    Array.iter
      (fun (op : Ops.op) ->
        t1 := !t1 +. timed (fun () -> ignore (Frame.compress ~jobs:1 ~codec:op.codec op.payload));
        tj := !tj +. timed (fun () -> ignore (Frame.compress ~jobs ~codec:op.codec op.payload)))
      ops;
    (* The benchmark's own spans are read inclusive: the codecs open
       spans of their own inside them. *)
    let s = Spans.total_s spans in
    let codec_rows =
      List.concat_map
        (fun c ->
          let name = Frame.codec_name c in
          [ ("compress." ^ name ^ ".enc_s", s ("compress." ^ name ^ ".enc"));
            ("compress." ^ name ^ ".dec_s", s ("compress." ^ name ^ ".dec")) ])
        [ Frame.Deflate; Frame.Gzip; Frame.Lzw; Frame.Bzip2 ]
    in
    let codec_total = List.fold_left (fun a (_, v) -> a +. v) 0. codec_rows in
    let frame = s "frame.compress" +. s "frame.decompress" in
    let crc = s "compress.crc32" in
    let layers =
      [
        ("frame.compress_s", s "frame.compress");
        ("frame.decompress_s", s "frame.decompress");
        ("frame.self_s", frame -. codec_total -. crc);
        ("compress.crc32_s", crc);
        ("serve.overhead_s", ops_total -. frame);
      ]
      @ codec_rows
      @ [
          ("parallel.speedup", !t1 /. !tj);
          ("gc.minor_words", minor);
          ("gc.major_collections", float_of_int major);
          ("traced_wall_s", wall);
          ("unattributed_s", wall -. ops_total);
          ("attributed_share", ops_total /. wall);
          ("obs.overhead_ratio", traced /. untraced);
        ]
    in
    emit ~tally ~metrics ~layers ~extra
  end

(* ------------------------------------------------------------------ *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let seed = ref 1 and trace = ref 0 and setup_only = ref false in
  let workload = ref "" and seconds = ref 10. and segments = ref 1 and jobs = ref 1 in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--setup-only", Arg.Set setup_only, " exit right after READY");
      ("--workload", Arg.Set_string workload, "NAME stream workload");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--segments", Arg.Set_int segments, "K daemons the stream run is split over");
      ("--jobs", Arg.Set_int jobs, "J daemon --jobs");
    ]
  in
  let usage = "bench.exe (paper|stream) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  match mode with
  | "paper" ->
      print_endline "READY";
      if not !setup_only then paper ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | "stream" ->
      stream ~workload:!workload ~seed:!seed ~seconds:!seconds ~segments:(max 1 !segments)
        ~trace:(!trace = 1) ~jobs:!jobs
  | _ -> prerr_endline usage; exit 2
