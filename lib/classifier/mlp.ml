open Zipchannel_util

type layer = {
  weights : float array array; (* out x in *)
  biases : float array;
  w_vel : float array array; (* momentum buffers *)
  b_vel : float array;
}

(* Scratch buffers for the forward/backward passes, allocated once at
   [create]: [acts.(l)] holds layer [l]'s post-activation ([acts.(0)] is
   repointed at the current input), [deltas.(l)] the gradient flowing
   into layer [l].  Training a sample therefore allocates nothing; the
   arithmetic (and so the trained weights) is bit-identical to the
   allocate-per-sample version.  One [t] must not run forward passes on
   two domains at once. *)
type t = {
  layers : layer array;
  prng : Prng.t;
  acts : float array array;
  deltas : float array array;
}

let create ?(seed = 0x5EED) ~layers () =
  (match layers with
  | _ :: _ :: _ -> ()
  | _ -> invalid_arg "Mlp.create: need at least input and output sizes");
  List.iter (fun d -> if d <= 0 then invalid_arg "Mlp.create: layer size") layers;
  let prng = Prng.create ~seed () in
  let rec build = function
    | d_in :: (d_out :: _ as rest) ->
        (* He initialisation: N(0, sqrt(2/fan_in)). *)
        let std = sqrt (2.0 /. float_of_int d_in) in
        let layer =
          {
            weights =
              Array.init d_out (fun _ ->
                  Array.init d_in (fun _ ->
                      Prng.gaussian prng ~mean:0.0 ~stddev:std));
            biases = Array.make d_out 0.0;
            w_vel = Array.make_matrix d_out d_in 0.0;
            b_vel = Array.make d_out 0.0;
          }
        in
        layer :: build rest
    | [ _ ] | [] -> []
  in
  let sizes = Array.of_list layers in
  let n = Array.length sizes - 1 in
  {
    layers = Array.of_list (build layers);
    prng;
    acts =
      Array.init (n + 1) (fun l -> if l = 0 then [||] else Array.make sizes.(l) 0.0);
    deltas =
      Array.init (n + 1) (fun l -> if l = 0 then [||] else Array.make sizes.(l) 0.0);
  }

let n_inputs t = Array.length t.layers.(0).weights.(0)

let n_classes t =
  Array.length t.layers.(Array.length t.layers - 1).biases

(* Plain loops, so [acc] stays an unboxed local instead of a float ref
   captured (and boxed) by a closure.  Summation order (bias, then
   i = 0..n-1) is fixed: it is what the trained bits depend on. *)
let affine_into layer x out =
  for o = 0 to Array.length layer.weights - 1 do
    let row = layer.weights.(o) in
    let acc = ref layer.biases.(o) in
    for i = 0 to Array.length row - 1 do
      acc := !acc +. (row.(i) *. x.(i))
    done;
    out.(o) <- !acc
  done

let relu_in_place v =
  for i = 0 to Array.length v - 1 do
    if not (v.(i) > 0.0) then v.(i) <- 0.0
  done

let softmax_in_place v =
  let m = Array.fold_left Float.max neg_infinity v in
  for i = 0 to Array.length v - 1 do
    v.(i) <- exp (v.(i) -. m)
  done;
  let s = Array.fold_left ( +. ) 0.0 v in
  for i = 0 to Array.length v - 1 do
    v.(i) <- v.(i) /. s
  done

(* Forward pass keeping every layer's post-activation (in the scratch
   buffers), for backprop. *)
let forward_acts t x =
  let n = Array.length t.layers in
  t.acts.(0) <- x;
  for l = 0 to n - 1 do
    let out = t.acts.(l + 1) in
    affine_into t.layers.(l) t.acts.(l) out;
    if l = n - 1 then softmax_in_place out else relu_in_place out
  done;
  t.acts

let forward t x =
  if Array.length x <> n_inputs t then invalid_arg "Mlp.forward: input size";
  (* Copied out of the scratch so callers may keep the probabilities. *)
  Array.copy (forward_acts t x).(Array.length t.layers)

let predict t x =
  let p = forward t x in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > p.(!best) then best := i) p;
  !best

let loss t ~x ~y =
  let n = Array.length x in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i xi ->
        let p = forward t xi in
        acc := !acc -. log (Float.max 1e-12 p.(y.(i))))
      x;
    !acc /. float_of_int n
  end

let accuracy t ~x ~y =
  let n = Array.length x in
  if n = 0 then 0.0
  else begin
    let ok = ref 0 in
    Array.iteri (fun i xi -> if predict t xi = y.(i) then incr ok) x;
    float_of_int !ok /. float_of_int n
  end

(* Momentum on a dead ReLU path only decays ([v <- 0.9 v]), and once
   subnormal it never reaches zero: [0.9 *. v] rounds back to [v] for the
   smallest subnormals, and every later update of that entry takes the
   CPU's slow subnormal path.  Flushing [|v| < min_float] to zero keeps
   the trained bits: adding such a [v] to a weight or gradient of
   magnitude >= 2^-968 rounds it away (it is below half an ulp), so the
   flush can only matter for entries that are themselves within 2^-968
   of zero. *)
let flush_subnormal v = if Float.abs v < Float.min_float then 0.0 else v

let train_sample t ~learning_rate ~momentum x label =
  let n = Array.length t.layers in
  let acts = forward_acts t x in
  (* Output delta for softmax + cross-entropy: p - onehot. *)
  let out_delta = t.deltas.(n) in
  Array.blit acts.(n) 0 out_delta 0 (Array.length out_delta);
  out_delta.(label) <- out_delta.(label) -. 1.0;
  for l = n - 1 downto 0 do
    let layer = t.layers.(l) in
    let input = acts.(l) in
    let d = t.deltas.(l + 1) in
    (* Propagate before updating the weights. *)
    if l > 0 then begin
      let nd = t.deltas.(l) in
      let d_in = Array.length nd in
      Array.fill nd 0 d_in 0.0;
      for o = 0 to Array.length d - 1 do
        let row = layer.weights.(o) in
        let dv = d.(o) in
        for i = 0 to d_in - 1 do
          nd.(i) <- nd.(i) +. (row.(i) *. dv)
        done
      done;
      (* ReLU derivative at the previous activation. *)
      for i = 0 to d_in - 1 do
        if not (input.(i) > 0.0) then nd.(i) <- 0.0
      done
    end;
    for o = 0 to Array.length d - 1 do
      let row = layer.weights.(o) and vel = layer.w_vel.(o) in
      let dv = d.(o) in
      for i = 0 to Array.length row - 1 do
        let v =
          flush_subnormal
            ((momentum *. vel.(i)) -. (learning_rate *. dv *. input.(i)))
        in
        vel.(i) <- v;
        row.(i) <- row.(i) +. v
      done;
      let v =
        flush_subnormal
          ((momentum *. layer.b_vel.(o)) -. (learning_rate *. dv))
      in
      layer.b_vel.(o) <- v;
      layer.biases.(o) <- layer.biases.(o) +. v
    done
  done

module Obs = Zipchannel_obs.Obs

let m_epochs = Obs.Metrics.counter "classifier.epochs"
let m_samples = Obs.Metrics.counter "classifier.samples"
let g_epoch_loss = Obs.Metrics.gauge "classifier.epoch_loss"

let train ?(epochs = 30) ?(learning_rate = 0.01) ?(momentum = 0.9) t ~x ~y =
  if Array.length x <> Array.length y then invalid_arg "Mlp.train: sizes";
  Obs.with_span "mlp.train"
    ~attrs:
      [
        ("epochs", string_of_int epochs);
        ("samples", string_of_int (Array.length x));
      ]
  @@ fun () ->
  let progress = Obs.Progress.create ~total:epochs ~label:"mlp.train" () in
  let n = Array.length x in
  let order = Array.init n (fun i -> i) in
  (* [train_sample]'s forward pass leaves the sample's softmax here;
     backprop writes only [t.deltas], so it is still readable after. *)
  let probs = t.acts.(Array.length t.layers) in
  for _ = 1 to epochs do
    Prng.shuffle t.prng order;
    let obs = Obs.enabled () in
    let epoch_loss = ref 0.0 in
    for k = 0 to n - 1 do
      let i = order.(k) in
      train_sample t ~learning_rate ~momentum x.(i) y.(i);
      if obs then
        epoch_loss := !epoch_loss -. log (Float.max 1e-12 probs.(y.(i)))
    done;
    Obs.Metrics.incr m_epochs;
    Obs.Metrics.add m_samples n;
    (* Running training loss: each sample's cross-entropy just before
       its own update, averaged over the epoch.  Read off the forward
       pass training already ran, so telemetry costs no extra pass and
       cannot perturb the trained weights. *)
    if obs && n > 0 then
      Obs.Metrics.set_gauge g_epoch_loss (!epoch_loss /. float_of_int n);
    Obs.Progress.step progress
  done;
  Obs.Progress.finish progress
