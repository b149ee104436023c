open Zipchannel_util
open Zipchannel_classifier

let test_create_validation () =
  Alcotest.check_raises "one layer"
    (Invalid_argument "Mlp.create: need at least input and output sizes")
    (fun () -> ignore (Mlp.create ~layers:[ 4 ] ()));
  Alcotest.check_raises "bad size" (Invalid_argument "Mlp.create: layer size")
    (fun () -> ignore (Mlp.create ~layers:[ 4; 0; 2 ] ()))

let test_shapes () =
  let m = Mlp.create ~layers:[ 6; 5; 3 ] () in
  Alcotest.(check int) "inputs" 6 (Mlp.n_inputs m);
  Alcotest.(check int) "classes" 3 (Mlp.n_classes m)

let test_softmax_probabilities () =
  let m = Mlp.create ~layers:[ 4; 8; 3 ] () in
  let p = Mlp.forward m [| 0.1; -0.2; 0.3; 0.9 |] in
  let sum = Array.fold_left ( +. ) 0.0 p in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 sum;
  Array.iter
    (fun v -> Alcotest.(check bool) "in [0,1]" true (v >= 0.0 && v <= 1.0))
    p

let test_forward_input_validation () =
  let m = Mlp.create ~layers:[ 4; 3 ] () in
  Alcotest.check_raises "wrong size" (Invalid_argument "Mlp.forward: input size")
    (fun () -> ignore (Mlp.forward m [| 1.0 |]))

let test_deterministic_init () =
  let a = Mlp.create ~seed:9 ~layers:[ 3; 4; 2 ] () in
  let b = Mlp.create ~seed:9 ~layers:[ 3; 4; 2 ] () in
  let x = [| 0.5; -0.5; 1.0 |] in
  Alcotest.(check (array (float 1e-12))) "same forward" (Mlp.forward a x)
    (Mlp.forward b x)

let blob_dataset ~seed ~classes ~dims ~per_class =
  let prng = Prng.create ~seed () in
  let sample cls =
    Array.init dims (fun d ->
        Prng.gaussian prng
          ~mean:(2.0 *. float_of_int (((cls + d) mod classes) - 1))
          ~stddev:0.4)
  in
  Dataset.make
    (List.concat
       (List.init classes (fun c ->
            List.init per_class (fun _ -> (sample c, c)))))

let test_learns_separable_blobs () =
  let ds = blob_dataset ~seed:5 ~classes:3 ~dims:8 ~per_class:80 in
  let ds = Dataset.shuffle (Prng.create ~seed:6 ()) ds in
  let train, test = Dataset.split ds ~train_fraction:0.8 in
  let m = Mlp.create ~layers:[ 8; 16; 3 ] () in
  Mlp.train ~epochs:50 m ~x:train.Dataset.x ~y:train.Dataset.y;
  Alcotest.(check bool) "train accuracy" true
    (Mlp.accuracy m ~x:train.Dataset.x ~y:train.Dataset.y > 0.95);
  Alcotest.(check bool) "test accuracy" true
    (Mlp.accuracy m ~x:test.Dataset.x ~y:test.Dataset.y > 0.9)

let test_training_reduces_loss () =
  let ds = blob_dataset ~seed:7 ~classes:2 ~dims:4 ~per_class:50 in
  let m = Mlp.create ~layers:[ 4; 8; 2 ] () in
  let before = Mlp.loss m ~x:ds.Dataset.x ~y:ds.Dataset.y in
  Mlp.train ~epochs:20 m ~x:ds.Dataset.x ~y:ds.Dataset.y;
  let after = Mlp.loss m ~x:ds.Dataset.x ~y:ds.Dataset.y in
  Alcotest.(check bool) "loss decreased" true (after < before)

(* Inputs are positive and the learning rate is high, so hidden units die
   mid-training: their momentum then only decays, and the subnormal flush
   in [train_sample] fires (about 200 times on this set). *)
let dead_relu_set () =
  let prng = Prng.create ~seed:11 () in
  let x =
    Array.init 96 (fun i ->
        Array.init 6 (fun d ->
            Prng.float prng +. float_of_int ((i + d) mod 3)))
  in
  (x, Array.init 96 (fun i -> i mod 3))

let train_dead_relu_net () =
  let x, y = dead_relu_set () in
  let m = Mlp.create ~seed:12 ~layers:[ 6; 24; 3 ] () in
  Mlp.train ~epochs:90 ~learning_rate:0.1 m ~x ~y;
  m

let forward_digest m x =
  let b = Buffer.create 4096 in
  Array.iter
    (fun xi -> Array.iter (fun p -> Printf.bprintf b "%h\n" p) (Mlp.forward m xi))
    x;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pins the trained bits: captured before the subnormal flush and the
   loop-based affine kernel went in, which must not change any of them. *)
let test_trained_bits_pinned () =
  let x, _ = dead_relu_set () in
  Alcotest.(check string) "forward digest" "92442f496b4895a01ba9336ecc9a75d9"
    (forward_digest (train_dead_relu_net ()) x)

module Obs = Zipchannel_obs.Obs

let with_obs f =
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Metrics.reset ())
    f

let test_obs_does_not_perturb_training () =
  let x, _ = dead_relu_set () in
  let off = train_dead_relu_net () in
  let on = with_obs train_dead_relu_net in
  Alcotest.(check (array int)) "same predictions"
    (Array.map (Mlp.predict off) x)
    (Array.map (Mlp.predict on) x);
  Alcotest.(check string) "same bits" (forward_digest off x)
    (forward_digest on x)

(* [classifier.epoch_loss] is the mean over the epoch of each sample's
   loss just before its own update.  Replays the epoch one sample at a
   time on a twin net (weights do not depend on the shuffle's PRNG
   draws) for both possible orders; the gauge must match one exactly. *)
let test_epoch_loss_is_running_mean () =
  let x = [| [| 0.5; -1.0; 2.0 |]; [| -0.3; 0.8; 0.1 |] |] in
  let y = [| 0; 1 |] in
  let make () = Mlp.create ~seed:3 ~layers:[ 3; 4; 2 ] () in
  let gauge =
    with_obs (fun () ->
        Mlp.train ~epochs:1 (make ()) ~x ~y;
        List.assoc "classifier.epoch_loss" (Obs.Metrics.snapshot ()).Obs.Metrics.gauges)
  in
  let replay first second =
    let m = make () in
    let l1 = Mlp.loss m ~x:[| x.(first) |] ~y:[| y.(first) |] in
    Mlp.train ~epochs:1 m ~x:[| x.(first) |] ~y:[| y.(first) |];
    let l2 = Mlp.loss m ~x:[| x.(second) |] ~y:[| y.(second) |] in
    (l1 +. l2) /. 2.0
  in
  let a = replay 0 1 and b = replay 1 0 in
  Alcotest.(check bool) "orders differ" true (a <> b);
  Alcotest.(check bool)
    (Printf.sprintf "gauge %h is %h or %h" gauge a b)
    true
    (gauge = a || gauge = b)

let test_dataset_split () =
  let ds = Dataset.make (List.init 10 (fun i -> ([| float_of_int i |], i))) in
  let a, b = Dataset.split ds ~train_fraction:0.7 in
  Alcotest.(check int) "train 7" 7 (Array.length a.Dataset.x);
  Alcotest.(check int) "test 3" 3 (Array.length b.Dataset.x);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Dataset.split: fraction")
    (fun () -> ignore (Dataset.split ds ~train_fraction:1.5))

let test_dataset_shuffle_preserves_pairs () =
  let ds =
    Dataset.make (List.init 50 (fun i -> (Array.make 1 (float_of_int i), i)))
  in
  let s = Dataset.shuffle (Prng.create ~seed:8 ()) ds in
  Array.iteri
    (fun i x ->
      Alcotest.(check (float 1e-12)) "pair intact"
        (float_of_int s.Dataset.y.(i))
        x.(0))
    s.Dataset.x

let test_features_of_bools () =
  let f = Dataset.features_of_bools [| [| true; false |]; [| false; true |] |] in
  Alcotest.(check (array (float 1e-12))) "flattened" [| 1.0; 0.0; 0.0; 1.0 |] f

let test_downsample () =
  let trace = Array.init 100 (fun i -> i < 50) in
  let d = Dataset.downsample ~bins:4 trace in
  Alcotest.(check (array (float 1e-12))) "hit fractions"
    [| 1.0; 1.0; 0.0; 0.0 |] d;
  Alcotest.check_raises "bins" (Invalid_argument "Dataset.downsample: bins")
    (fun () -> ignore (Dataset.downsample ~bins:0 trace))

let qcheck_softmax_sums =
  QCheck.Test.make ~name:"softmax always sums to 1" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 6) (float_range (-10.0) 10.0))
    (fun l ->
      let m = Mlp.create ~layers:[ 6; 3 ] () in
      let p = Mlp.forward m (Array.of_list l) in
      abs_float (Array.fold_left ( +. ) 0.0 p -. 1.0) < 1e-9)

let suite =
  ( "classifier",
    [
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "shapes" `Quick test_shapes;
      Alcotest.test_case "softmax" `Quick test_softmax_probabilities;
      Alcotest.test_case "forward validation" `Quick test_forward_input_validation;
      Alcotest.test_case "deterministic init" `Quick test_deterministic_init;
      Alcotest.test_case "learns blobs" `Quick test_learns_separable_blobs;
      Alcotest.test_case "loss decreases" `Quick test_training_reduces_loss;
      Alcotest.test_case "trained bits pinned" `Quick test_trained_bits_pinned;
      Alcotest.test_case "obs does not perturb training" `Quick
        test_obs_does_not_perturb_training;
      Alcotest.test_case "epoch loss is running mean" `Quick
        test_epoch_loss_is_running_mean;
      Alcotest.test_case "dataset split" `Quick test_dataset_split;
      Alcotest.test_case "dataset shuffle" `Quick test_dataset_shuffle_preserves_pairs;
      Alcotest.test_case "features of bools" `Quick test_features_of_bools;
      Alcotest.test_case "downsample" `Quick test_downsample;
      QCheck_alcotest.to_alcotest qcheck_softmax_sums;
    ] )
