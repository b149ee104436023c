(* Tests of the benchmark's own checking and accounting: a corrupted
   round trip and an experiment below its floor each count as a failed
   op, and span self time is duration minus direct children. *)

module Tally = Perfbench.Tally
module Frame = Zipchannel.Frame
module Obs = Zipchannel.Obs

let payload = Bytes.of_string (String.concat " " (List.init 2000 string_of_int))

let flip b i =
  let b = Bytes.copy b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  b

let check_op tally r =
  match Tally.round_trip ~sent:payload r with
  | Ok () -> Tally.record tally ~ok:true ~what:""
  | Error e -> Tally.record tally ~ok:false ~what:e

let flipped_round_trip () =
  let tally = Tally.create () in
  let c = Frame.compress ~codec:Frame.Deflate payload in
  check_op tally (Frame.decompress_result c |> Result.map_error (fun _ -> "decode"));
  (* one flipped byte in the plaintext that came back *)
  check_op tally (Ok (flip payload 17));
  (* one flipped byte in the compressed stream: CRC-32 catches it *)
  check_op tally
    (Frame.decompress_result (flip c (Bytes.length c / 2))
    |> Result.map_error Zipchannel.Codec_error.to_string);
  (* a refusal *)
  check_op tally (Error "ZCER busy");
  Alcotest.(check int) "attempted" 4 tally.attempted;
  Alcotest.(check int) "failed" 3 tally.failed;
  Alcotest.(check (float 1e-9)) "error_rate" 0.75 (Tally.error_rate tally)

let below_floor () =
  let ok = [ ("bit accuracy (paper >0.99)", 0.995); ("seconds (paper <30)", 3.) ] in
  Alcotest.(check (list string)) "E7 meets its floors" [] (Tally.below_floor ~id:"E7" ok);
  let low = [ ("bit accuracy (paper >0.99)", 0.98); ("seconds (paper <30)", 3.) ] in
  Alcotest.(check int) "E7 at 98% of bits misses" 1 (List.length (Tally.below_floor ~id:"E7" low));
  let slow = [ ("bit accuracy (paper >0.99)", 0.995); ("seconds (paper <30)", 31.) ] in
  Alcotest.(check int) "E7 over 30 s misses" 1 (List.length (Tally.below_floor ~id:"E7" slow));
  Alcotest.(check int) "a floored metric that is absent misses" 1
    (List.length (Tally.below_floor ~id:"E11" [ ("chance", 0.2) ]));
  let tally = Tally.create () in
  List.iter
    (fun (id, m) -> Tally.record tally ~ok:(Tally.below_floor ~id m = []) ~what:id)
    [ ("E7", ok); ("E7", low); ("E11", [ ("test accuracy", 0.55) ]); ("E11", [ ("test accuracy", 0.2) ]) ];
  Alcotest.(check (float 1e-9)) "error_rate" 0.5 (Tally.error_rate tally)

let ev phase name depth ts dur =
  { Obs.Trace.phase; name; domain = 0; depth; ts_ns = ts; dur_ns = dur; attrs = [] }

let span_self_time () =
  let t = Perfbench.Spans.create () in
  List.iter (Perfbench.Spans.on_event t)
    [ ev `Begin "outer" 0 0 0; ev `Begin "inner" 1 10 0; ev `End "inner" 1 40 30;
      ev `Begin "inner" 1 50 0; ev `End "inner" 1 70 20; ev `End "outer" 0 100 100 ];
  let ns s = Float.round (s *. 1e9) in
  Alcotest.(check (float 0.)) "outer self" 50. (ns (Perfbench.Spans.self_s t "outer"));
  Alcotest.(check (float 0.)) "outer total" 100. (ns (Perfbench.Spans.total_s t "outer"));
  Alcotest.(check (float 0.)) "inner self" 50. (ns (Perfbench.Spans.self_s t "inner"));
  Alcotest.(check (float 0.)) "self sum is the root's duration" 100. (ns (Perfbench.Spans.self_sum_s t))

let tail_rule () =
  let xs = List.init 1000 float_of_int in
  let v, p, beyond = Perfbench.Stats.tail xs in
  Alcotest.(check (float 0.)) "value" 989. v;
  Alcotest.(check (float 1e-9)) "percentile" 99. p;
  Alcotest.(check int) "beyond" 10 beyond;
  let v, p, _ = Perfbench.Stats.tail (List.init 19 float_of_int) in
  Alcotest.(check (float 0.)) "19 samples: the 9th, below the median" 8. v;
  Alcotest.(check (float 1e-9)) "19 samples: p47" (100. *. 9. /. 19.) p;
  let v, _, beyond = Perfbench.Stats.tail [ 3.; 1.; 2. ] in
  Alcotest.(check (float 0.)) "few samples: the maximum" 3. v;
  Alcotest.(check int) "nothing beyond the maximum" 0 beyond;
  Alcotest.(check (float 0.)) "median" 2.5 (Perfbench.Stats.median [ 4.; 1.; 2.; 3. ])

let stratified_mix () =
  let kinds seed =
    Perfbench.Ops.pass ~workload:"stream-lz" ~seed
    |> Array.map (fun (o : Perfbench.Ops.op) -> (Frame.codec_name o.codec, Perfbench.Ops.content_name o.content))
    |> Array.to_list |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "same mix on every seed" (kinds 1) (kinds 2);
  let ops = Perfbench.Ops.pass ~workload:"stream-lz" ~seed:3 in
  Alcotest.(check (list string)) "codecs cycle" [ "deflate"; "gzip"; "lzw"; "deflate" ]
    (List.init 4 (fun i -> Frame.codec_name ops.(i).codec));
  Array.iter
    (fun (o : Perfbench.Ops.op) ->
      let n = Bytes.length o.payload in
      if n < 4096 || n > 262144 then Alcotest.failf "payload of %d bytes" n)
    ops

let () =
  Alcotest.run "perfbench"
    [
      ( "accounting",
        [
          Alcotest.test_case "flipped round trip counts as failed" `Quick flipped_round_trip;
          Alcotest.test_case "experiment below floor counts as failed" `Quick below_floor;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "span self time" `Quick span_self_time;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "stratified request mix" `Quick stratified_mix;
        ] );
    ]
