(** A metrics registry for the event pipeline.

    One registry lives inside each {!Server} (and anything holding the
    server can hang its own series off it).  Three primitives:

    - {b counters} — monotonically increasing ints (events enqueued,
      coalesced away, delivered, per-request-opcode counts, pans);
    - {b gauges} — recorded maxima (queue high-water mark);
    - {b histograms} — log2-bucketed distributions of integer samples
      (delivery batch sizes, dispatch latencies in nanoseconds).

    Handles ({!counter}, {!gauge}, {!histogram}) are find-or-create by
    name, so hot paths look a series up once and then pay one mutation per
    sample.  {!to_json} dumps the whole registry as a single JSON object
    for the bench harness and CI artifacts. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counter_value : t -> string -> int
(** 0 when the series does not exist. *)

(** {1 Gauges (recorded maxima)} *)

type gauge

val gauge : t -> string -> gauge
val record_max : gauge -> int -> unit
val gauge_value : t -> string -> int

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> int -> unit
(** Record a sample.  Buckets are log2-sized: sample [n >= 0] lands in
    bucket [ceil (log2 (n + 1))], i.e. bucket upper bounds 0, 1, 3, 7,
    15, ... *)

val bucket_of : int -> int
(** The bucket {!observe} counts a sample in: the bit length of [n > 0]
    (0 for [n <= 0]), at most the last bucket (31).  Allocates nothing. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) from
    the log2 buckets, interpolating linearly inside the bucket holding the
    q-th sample.  The estimate is within one bucket (a factor of 2) of the
    true value; 0 when the histogram is empty. *)

(** {1 Labeled families}

    A family is one logical series fanned out by a single label key —
    [functions.calls{fn}], [events.delivered.by_conn{conn}] — so dispatch
    time, allocation and fault absorption become attributable to a client,
    function or event kind.  Cardinality is bounded: the first [max_series]
    distinct label values (default 32) get real series; every later value
    collapses into the ["other"] series, and each rejected lookup bumps the
    registry-wide [metrics.label_overflow] counter.  Hot paths look a label
    up once and cache the returned handle, exactly like plain counters. *)

type counter_family
type histogram_family

val counter_family :
  t -> ?max_series:int -> key:string -> string -> counter_family
(** Find-or-create by family name.  [key] and [max_series] are fixed at
    first creation; later calls with the same name return the existing
    family unchanged. *)

val histogram_family :
  t -> ?max_series:int -> key:string -> string -> histogram_family

val labeled_counter : counter_family -> string -> counter
(** The series for one label value — or the ["other"] series once the
    family is at capacity (bumping [metrics.label_overflow] per rejected
    lookup). *)

val labeled_histogram : histogram_family -> string -> histogram

val counter_family_key : counter_family -> string

val counter_family_labels : counter_family -> string list
(** Label values holding a series, sorted — includes ["other"] once
    overflow has happened. *)

val labeled_counter_value : t -> string -> string -> int
(** [labeled_counter_value t family label]; 0 when either does not
    exist. *)

val family_top : counter_family -> int -> (string * int) list
(** The family's top-[n] series by value, descending (ties broken by
    label) — the "top talkers" view. *)

val top_json : t -> ?n:int -> unit -> string
(** Every counter family's {!family_top} (default [n = 8]) as one JSON
    object: [{family:{"key":k,"top":[{"label":l,"value":v},..]},..}] —
    the payload behind [f.query(stats)]'s ["top"] section. *)

(** {2 Clock}

    Every timing series, span, recorder entry and ledger stamp reads one
    clock: monotonic wall time, which is what a user perceives and what
    survives CPU idling.  Span durations and [time_mono_ns] series are
    therefore directly comparable. *)

val time_mono_ns : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall (monotonic) time in nanoseconds into
    the named histogram ([panner.refresh_ns]). *)

val now_mono_ns : unit -> int
(** One reading of the monotonic clock, in nanoseconds — for callers (the
    {!Wm} watchdog, {!Tracing}, {!Recorder}, the ledger) that need the value
    itself, not just a histogram sample. *)

val clock_reads : unit -> int
(** {!now_mono_ns} calls since the program started: a plain count, so a
    bench can say how many clock reads an event costs. *)

(** {1 Export} *)

val reset : t -> unit
(** Zero every series (keeps the registrations, so held handles stay
    valid). *)

val json_string : string -> string
(** {!Json.escape}: a string as a quoted JSON literal.  Used for every
    series name in {!to_json} (so a stray name can never corrupt the dump)
    and by the other hand-built exporters. *)

val to_json : t -> string
(** The registry as one JSON object:
    [{"counters": {..}, "gauges": {..},
      "histograms": {name: {"count","sum","max","p50","p99","p999",
      "buckets":[[le,count],..]}},
      "labeled": {family: {"key":k,"series":{label:v,..}},..},
      "labeled_histograms": {family: {"key":k,"series":{label:hist,..}},..}]
    [p50]/[p99]/[p999] are {!hist_quantile} estimates.  Series are sorted by name
    so dumps diff cleanly, and names are escaped with {!json_string} so the
    dump is always valid JSON. *)

val pp : Format.formatter -> t -> unit

val to_prometheus : t -> string
(** The registry in Prometheus text exposition format (0.0.4): counters as
    [swm_<name>_total], gauges as [swm_<name>], histograms as cumulative
    [_bucket{le="..."}] lines (log2 upper bounds, ending in [+Inf]) plus
    [_sum]/[_count].  Labeled families follow as
    [swm_<family>_total{key="value"}] samples (and labeled histograms with
    the family label ahead of [le]); label values are escaped per the
    format (backslash, double quote and newline each get a backslash
    escape).  Dots and other
    non-identifier characters in series names become underscores.  Series
    are name-sorted, like {!to_json}. *)

val to_table : t -> string
(** A human-readable table: name-sorted counters and gauges with their
    values, histograms with count/p50/p99/p999/max — what [swmcmd_cli
    --metrics --table] prints. *)

(** {1 Time-series sampler}

    A {!sampler} snapshots a fixed list of counters into a bounded ring
    ({!sample}, driven from the WM's dispatch tick) so rates can be derived
    over the retained window — events/sec, faults/sec — rather than only
    all-time totals.  The ring's rows are allocated at creation and
    overwritten in place, and each counter's handle is looked up until the
    counter exists, then kept: a sample allocates nothing, and its cost is
    constant no matter the uptime. *)

type sampler

val sampler : t -> ?capacity:int -> string list -> sampler
(** Track the named counters ([capacity] retained samples, default 64).  A
    name with no counter yet reads 0 and registers none. *)

val sample : sampler -> unit
(** Record one timestamped snapshot of every tracked counter. *)

val sample_count : sampler -> int
(** Samples taken since creation (>= {!retained}). *)

val retained : sampler -> int
(** Samples currently held in the ring (at most the capacity). *)

val rate : sampler -> string -> float
(** Increments per second over the retained window ([newest - oldest] /
    elapsed); 0 with fewer than two samples or for an untracked name. *)

val stats_json : sampler -> string
(** [{"samples":n,"window_ns":w,"series":{name:{"value":v,
    "rate_per_sec":r},..}}] — the payload behind [f.query(stats)]. *)
