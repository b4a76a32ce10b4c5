(** Continuous profiling over the {!Metrics} + {!Tracing} substrate.

    A profiler closes the measurement gap between "how long did dispatch
    take" and "which frames, and at what allocation cost": while armed it

    - samples [Gc.quick_stat] deltas around every dispatched event
      ({!event_section}), feeding [gc.minor_words_per_event] (histogram),
      [gc.promoted_words] and minor/major collection counters into the
      registry's existing JSON / Prometheus / table expositions;
    - measures minor words allocated inside marked wire sections
      ({!alloc_section}) as [gc.minor_words.<name>] histograms;
    - folds every closed tracing span into an aggregated call tree
      (count, total/self wall time, minor words per frame) via the
      tracer's span {!Tracing.sink} — {e live at span close}, not by
      reading the ring back, so the tree stays consistent no matter how
      often the ring overwrites old events.

    Disarmed, every probe is a single flag check; arming is what turns on
    the tracer (restored to its previous state on {!stop}) and the [Gc]
    reads.  Export is a nested-tree JSON dump ({!to_json}) and
    collapsed-stack text ({!to_collapsed}) that flamegraph.pl / speedscope
    / inferno consume directly. *)

type t

val create : metrics:Metrics.t -> tracer:Tracing.t -> unit -> t
(** A disarmed profiler.  Registers its [gc.*] series immediately so they
    appear (at zero) in expositions. *)

(** {1 Control} *)

val armed : t -> bool

val start : t -> unit
(** Clear any previous profile, remember whether the tracer was already
    enabled, {!Tracing.start} it (which empties the span stack, so the
    sink never sees a span missing its allocation baseline) and install
    the aggregating sink.  Idempotent while armed. *)

val stop : t -> unit
(** Disarm: remove the sink and, if {!start} enabled the tracer, disable
    it again.  The aggregated tree is kept for export until the next
    {!start}. *)

val clear : t -> unit

(** {1 Probes} *)

val event_section : t -> (unit -> 'a) -> 'a
(** Wraps one event dispatch.  Disarmed: one flag check.  Armed: a
    [Gc.quick_stat] + monotonic-clock read on each side, observing the
    minor-words delta into [gc.minor_words_per_event], adding promoted
    words and collection counts to their counters, and accumulating the
    profiler's own dispatch wall-time total ({!dispatch_wall_ns}).  The
    armed flag is re-checked at exit so the event carrying the
    [f.query(profile,stop)] command is not half-sampled. *)

type section

val section : t -> string -> section
(** A cached handle for {!alloc_section} — the registry histogram
    [gc.minor_words.<name>].  Look up once, at connection/creation time. *)

val alloc_section : t -> section -> (unit -> 'a) -> 'a
(** Observe the minor words allocated by the thunk into the section's
    histogram.  Disarmed: one flag check. *)

(** {1 The aggregated call tree} *)

type frame = {
  name : string;
  count : int;  (** spans aggregated into this node *)
  total_ns : int;  (** wall time, self + descendants *)
  self_ns : int;  (** [max 0 (total - sum of children's totals)] *)
  alloc_words : float;  (** minor words allocated inside, incl. children *)
  children : frame list;  (** name-sorted *)
}

val roots : t -> frame list
(** Top-level frames (spans that closed with no enclosing span),
    name-sorted. *)

val root_total_ns : t -> int

val events : t -> int
(** Events measured by {!event_section} while armed. *)

val dispatch_wall_ns : t -> int
(** Wall time accumulated by {!event_section} while armed — the
    denominator of {!coverage}. *)

val coverage : t -> float
(** [root_total_ns / dispatch_wall_ns]: how much of the measured dispatch
    wall time the tree's root frames account for.  1.0 when no events
    were measured; may exceed 1.0 because non-dispatch roots (wire
    encode/flush spans) also aggregate.  The acceptance gate is
    [>= 0.95]. *)

(** {1 Export} *)

val to_json : t -> string
(** [{"armed":b,"events":n,"dispatch_wall_ns":w,"root_total_ns":r,
     "coverage":c,"tree":{name:{"count","total_ns","self_ns",
     "alloc_words","children":{..}},..}}] — the [f.query(profile)]
    payload. *)

val to_collapsed : t -> string
(** Collapsed-stack (flamegraph) text: one
    [frame;frame;frame self_ns] line per tree node with nonzero self
    time.  [';'] and [' '] inside frame names become ['_']. *)
