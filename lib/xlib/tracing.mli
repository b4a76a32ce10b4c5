(** Hierarchical span tracing across the request path.

    One tracer lives inside each {!Server} (next to its {!Metrics}
    registry) and every layer of the pipeline reports into it: wire
    decode, queue enqueue/coalesce, batched delivery, WM dispatch,
    [f.*] function invocations, decoration redraws, panner refreshes
    and desktop pans.  With tracing enabled, one interactive gesture
    shows up as a tree: a Button_press dispatch span containing an
    [f.panTo] span containing a [vdesk.pan_to] span containing the
    expose deliveries it caused.

    Costs: when disabled, {!span} is a single mutable-field check and
    the thunk call — no allocation, no clock read.  When enabled, each
    span costs two monotonic clock reads and one record written into a
    bounded {!Ring} of recent events (oldest overwritten first), so a
    tracer can stay on indefinitely without growing.

    Spans over a configurable threshold are additionally kept in a
    {e slow-op log} with their full ancestry, surviving ring overwrite —
    the post-hoc answer to "what was slow in the last hour".

    Export is Chrome trace-event JSON ({!to_chrome_json}): an object
    with a [traceEvents] array of complete ("ph":"X") and instant
    ("ph":"i") events that loads directly in Perfetto / chrome://tracing,
    where nesting is reconstructed from timestamp containment.

    Clock: all timestamps are {!Metrics.now_mono_ns} readings, the one
    clock every series uses — span durations measure wall latency, which
    is what a user perceives. *)

type t

type kind = Span | Instant

type event = {
  ev_name : string;
  ev_kind : kind;
  ev_ts : int;  (** start, ns since the tracer's epoch (monotonic) *)
  ev_dur : int;  (** ns; 0 for instants *)
  ev_depth : int;  (** nesting depth at the time the span was open *)
  ev_attrs : (string * string) list;
}

type slow_entry = {
  slow_name : string;
  slow_ts : int;
  slow_dur : int;
  slow_ancestry : string list;  (** outermost enclosing span first *)
  slow_attrs : (string * string) list;
}

val create : ?capacity:int -> ?slow_capacity:int -> unit -> t
(** A disabled tracer with a ring of [capacity] events (default 4096)
    and a slow-op log keeping the [slow_capacity] (default 64) most
    recent slow spans. *)

(** {1 Control} *)

val enabled : t -> bool

val start : t -> unit
(** Clear all recorded events and the slow log, reset the epoch, and
    enable recording. *)

val stop : t -> unit
(** Stop recording; events already in the ring are kept for export. *)

val clear : t -> unit

val set_slow_threshold_ns : t -> int -> unit
(** Spans at least this long (wall time) are copied into the slow-op
    log with their ancestry.  Default 10 ms. *)

(** {1 Span sink}

    A sink observes every span at the moment it closes, {e independently of
    the ring}: [(name, ancestry, dur_ns, alloc_minor_words)], where
    [ancestry] lists the still-open enclosing spans outermost first (the
    same shape the slow-op log records).  {!Profile} installs one to fold
    spans into an aggregated call tree — because aggregation happens at
    close time rather than by reading the ring back, the tree stays
    consistent no matter how often the ring overwrites old events.

    While a sink is installed, {!span} additionally reads [Gc.minor_words]
    at open and close so the sink receives the words allocated inside the
    span (0. for spans that were already open when the sink was installed).
    Without a sink there is no [Gc] read — the disabled/enabled costs
    documented above are unchanged. *)

type sink = string -> string list -> int -> float -> unit

val set_sink : t -> sink option -> unit

(** {1 Recording} *)

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span.  The span is recorded when
    [f] returns {e or raises} (the exception is re-raised); nesting is
    maintained by a stack, so spans opened inside [f] become children. *)

val instant : t -> ?attrs:(string * string) list -> string -> unit
(** A zero-duration point event at the current depth. *)

val note : t -> ?attrs:(string * string) list -> string -> unit
(** An {!instant} that is {e also} copied into the slow-op log
    regardless of duration, with its ancestry — for rare events that
    must survive ring wrap-around (absorbed X errors, injected
    faults' aftermath).  A no-op while disabled, like {!instant}. *)

(** {1 Inspection and export} *)

val events : t -> event list
(** Events surviving in the ring, oldest first. *)

val event_count : t -> int
(** Total events recorded since the last {!start}/{!clear}, including
    ones the ring has since overwritten. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val slow_log : t -> slow_entry list
(** Most recent slow spans, oldest first. *)

val to_chrome_json : t -> string
(** The ring as a Chrome trace-event JSON object
    ([{"traceEvents":[...]}], timestamps in microseconds).  Loadable in
    Perfetto and chrome://tracing. *)

val attrs_json : (string * string) list -> string
(** An attribute list as a JSON object of strings — the ["args"] of every
    export here and the ["attrs"] of {!Recorder}'s crash-report entries. *)

val slow_log_json : t -> string
(** The slow-op log as a JSON array of
    [{"name","ts_ns","dur_ns","ancestry":[..],"args":{..}}]. *)
