(* Failure accounting shared by every workload: each op is checked and
   counted, and a failed op is one that raised, was refused, came back
   different, or (for the paper workload) fell below its floor. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }

let record t ~ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    (* The first few reasons are enough to diagnose a failing run. *)
    if List.length t.notes < 8 then t.notes <- what :: t.notes
  end

let error_rate t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

let notes t = List.rev t.notes

(* ------------------------------------------------------------------ *)
(* Stream round trips *)

(* A round trip succeeds when the daemon answered both requests and the
   decompressed bytes equal the plaintext sent. *)
let round_trip ~sent = function
  | Ok got when Bytes.equal got sent -> Ok ()
  | Ok got ->
      Error
        (Printf.sprintf "round trip of %d bytes came back as %d different bytes"
           (Bytes.length sent) (Bytes.length got))
  | Error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Paper floors *)

type bound = At_least of float | Above of float | At_most of float

type floor = { id : string; metric : string; bound : bound }

(* Floors for each experiment's headline values.  Where the paper states
   a figure it is used (E7 and E8's full attack: >99 % of bits, E7 in
   <30 s; coverage of all bytes).  The paper reports full recovery of
   lowercase text (E5/E18) without a rate, so those use "above chance",
   like every other rate; booleans must hold.  Floors are not
   taken from one seed's values: E11's test accuracy, for one, ranges
   from 0.55 to 0.95 across seeds. *)
let floors =
  let f id metric bound = { id; metric; bound } in
  [
    f "E1" "input coverage (paper: all bytes)" (At_least 1.0);
    (* LZW's first byte reaches the channel only through [ent], never
       under direct-flow taint (EXPERIMENTS.md, E2/E4): all but one byte
       of a paragraph of at least 100 bytes. *)
    f "E2" "coverage (paper: all bytes)" (At_least 0.99);
    f "E2" "bits 9-16 tainted (1 = yes)" (At_least 1.0);
    f "E3" "coverage (paper: all bytes)" (At_least 1.0);
    f "E4" "coverage LZ77/Zlib" (At_least 1.0);
    f "E4" "coverage LZ78/LZW" (At_least 0.99);
    f "E4" "coverage BWT/Bzip2" (At_least 1.0);
    f "E4" "coverage LZ4" (At_least 1.0);
    f "E4" "coverage Snappy" (At_least 1.0);
    f "E5" "direct 2-bit accuracy" (Above 0.25);
    f "E5" "lowercase byte accuracy" (Above (1. /. 26.));
    f "E6" "byte accuracy" (Above (1. /. 256.));
    f "E7" "bit accuracy (paper >0.99)" (Above 0.99);
    f "E7" "seconds (paper <30)" (At_most 30.);
    f "E8" "bit accuracy, CAT + frame selection" (Above 0.99);
    f "E8" "bit accuracy, neither" (Above 0.5);
    f "E9" "blocks" (At_least 1.);
    f "E10" "test accuracy" (Above (1. /. 21.));
    f "E11" "test accuracy" (Above (1. /. 5.));
    f "E12" "fips vector ok" (At_least 1.);
    f "E12" "gadget found" (At_least 1.);
    f "E13" "size divergence detected" (At_least 1.);
    f "E13" "same size identical" (At_least 1.);
    f "E14" "oblivious correct" (At_least 1.);
    f "E14" "plain trace leaks" (At_least 1.);
    f "E14" "oblivious trace constant" (At_least 1.);
    f "E15" "controlled channel bits" (Above 0.5);
    f "E16" "taintchannel finds gadget" (At_least 1.);
    f "E17" "text byte accuracy" (Above (1. /. 256.));
    f "E17" "random bit accuracy" (Above 0.5);
    f "E18" "lowercase byte accuracy" (Above (1. /. 26.));
    f "E18" "random direct-bit accuracy" (Above 0.5);
    f "E19" "ratio per-byte rate" (Above (1. /. 16.));
    f "E19" "timing per-byte rate" (Above (1. /. 16.));
    f "E19" "capacity bits" (Above 0.);
    f "E19" "classifier accuracy" (Above 0.5);
  ]

let holds bound v =
  match bound with
  | At_least x -> v >= x
  | Above x -> v > x
  | At_most x -> v <= x

(* Every floor of [id] that [metrics] misses, as readable reasons.  A
   floored metric the experiment did not report is a miss too. *)
let below_floor ~id metrics =
  List.filter_map
    (fun fl ->
      if fl.id <> id then None
      else
        match List.assoc_opt fl.metric metrics with
        | None -> Some (Printf.sprintf "%s: no metric %S" id fl.metric)
        | Some v when holds fl.bound v -> None
        | Some v -> Some (Printf.sprintf "%s: %s = %g misses its floor" id fl.metric v))
    floors

(* The eight headline rates averaged into the paper workload's
   [accuracy]. *)
let headline =
  [
    ("E5", "lowercase byte accuracy");
    ("E6", "byte accuracy");
    ("E7", "bit accuracy (paper >0.99)");
    ("E10", "test accuracy");
    ("E11", "test accuracy");
    ("E17", "text byte accuracy");
    ("E18", "lowercase byte accuracy");
    ("E19", "ratio per-byte rate");
  ]
