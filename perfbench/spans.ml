(* In-memory span collector: a [Trace.Custom] sink that folds begin/end
   events into per-name self and total time as they arrive, so a long
   traced run keeps one row per span name rather than every event. *)

module Obs = Zipchannel.Obs

type row = { mutable self_ns : int; mutable total_ns : int; mutable count : int }

(* One open span: its name and the time its direct children covered. *)
type frame = { name : string; mutable child_ns : int }

type t = {
  rows : (string, row) Hashtbl.t;
  stacks : (int, frame list ref) Hashtbl.t;  (* per emitting domain *)
}

let create () = { rows = Hashtbl.create 64; stacks = Hashtbl.create 4 }

let row t name =
  match Hashtbl.find_opt t.rows name with
  | Some r -> r
  | None ->
      let r = { self_ns = 0; total_ns = 0; count = 0 } in
      Hashtbl.add t.rows name r;
      r

let stack t domain =
  match Hashtbl.find_opt t.stacks domain with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add t.stacks domain s;
      s

let on_event t (ev : Obs.Trace.span_event) =
  let s = stack t ev.domain in
  match ev.phase with
  | `Begin -> s := { name = ev.name; child_ns = 0 } :: !s
  | `End -> (
      match !s with
      | [] -> ()
      | top :: rest ->
          s := rest;
          let r = row t top.name in
          r.self_ns <- r.self_ns + (ev.dur_ns - top.child_ns);
          r.total_ns <- r.total_ns + ev.dur_ns;
          r.count <- r.count + 1;
          match rest with
          | parent :: _ -> parent.child_ns <- parent.child_ns + ev.dur_ns
          | [] -> ())

let sink t = Obs.Trace.Custom (on_event t)

(* Runs [f] with [t] installed as the trace sink, restoring [Null]. *)
let record t f =
  Obs.Trace.set_sink (sink t);
  Fun.protect ~finally:(fun () -> Obs.Trace.set_sink Obs.Trace.Null) f

let seconds ns = float_of_int ns /. 1e9
let find t name = Hashtbl.find_opt t.rows name
let self_s t name = match find t name with Some r -> seconds r.self_ns | None -> 0.
let total_s t name = match find t name with Some r -> seconds r.total_ns | None -> 0.

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.rows [] |> List.sort compare

(* Sum of self time over every span name: the part of the traced wall
   time spent inside some span. *)
let self_sum_s t = Hashtbl.fold (fun _ r acc -> acc +. seconds r.self_ns) t.rows 0.
