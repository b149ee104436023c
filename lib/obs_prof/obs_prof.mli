(** Side-band sampling wall-clock profiler and runtime telemetry plane.

    A ticker thread reads the per-domain span-path slots published by
    {!Obs.Prof} at a fixed interval (~1 kHz by default) and accumulates
    folded-stack sample counts, so flamegraph-shaped data is available
    with span tracing {e off}.  The instrumented code pays one atomic
    store per span push/pop and is never interrupted, locked, or
    signalled: compressed output stays byte-identical with the sampler
    on or off at any [--jobs].

    The same ticker derives a runtime telemetry plane from
    [Gc.quick_stat] deltas (minor words from the exact
    [Gc.minor_words ()] of the calling domain when folded by
    {!sample_once} with the ticker stopped) — minor/major collections,
    promoted words,
    heap size, allocation rate — published as [runtime.*] gauges and
    counters through {!Obs.Metrics} (and therefore visible on a serve
    daemon's [/metrics] endpoints), plus per-top-level-span allocation
    attribution for the domain that started the sampler.

    Sampled span self-time shares are additionally published as
    [prof.samples] / [prof.self.<leaf-span>] counters. *)

val start : ?interval_us:int -> unit -> unit
(** Start the ticker thread (default interval 1000 µs ≈ 1 kHz) and turn
    on {!Obs.Prof} slot publication.  Idempotent while running.  The
    calling domain's slot is recorded as the {e anchor}: per-top-span
    GC attribution follows whatever top-level span that slot shows. *)

val stop : unit -> unit
(** Stop and join the ticker, turn slot publication off.  Accumulated
    state is kept until {!reset} so a report can be taken after. *)

val running : unit -> bool

val reset : unit -> unit
(** Zero all accumulated samples and runtime deltas (keeps the ticker
    running if it is). *)

val sample_once : unit -> unit
(** Take exactly one sample of all slots plus a runtime delta, as the
    ticker would — deterministic hook for tests and for profiling
    single-shot code without a thread. Usable with the ticker stopped. *)

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  minor_words : float;
  promoted_words : float;
  heap_mb : float;  (** current major-heap size, MB (last observation) *)
  top_heap_mb : float;
  alloc_mb : float;  (** total allocation over the window, MB *)
  elapsed_s : float;
}

type slice = {
  top_span : string;  (** root component of the anchor slot's path *)
  samples : int;
  alloc_mb : float;  (** allocation attributed to ticks under this root *)
}

type report = {
  ticks : int;  (** sampler wakeups *)
  total_samples : int;  (** non-idle slot observations (≤ ticks × slots) *)
  folded : (string * int) list;
      (** folded stacks, ["domain-<slot>;outer;inner" -> samples],
          sorted by count descending — flamegraph input *)
  self : (string * int * int) list;
      (** per span name: (name, self samples, total samples), self
          descending.  Self counts ticks where the span was the leaf;
          total counts ticks where it was anywhere on the path. *)
  gc : gc_delta;  (** cumulative since [start]/[reset] *)
  slices : slice list;  (** per-top-span attribution, samples descending *)
}

val report : unit -> report

val report_to_json : report -> string
(** One JSON object: [{"ticks":..,"samples":..,"folded":{..},
    "self":{name:[self,total]},"gc":{..},"slices":[..]}]. *)

val folded_lines : ?prefix:string -> report -> string
(** The folded-stack text form ([key count] lines, one per stack),
    optionally prefixing every key with [prefix ^ ";"] — feedable to
    standard flamegraph tooling and to the bench [--folded] artifact. *)
