(** A black-box flight recorder.

    One recorder lives inside each {!Server}, next to the {!Metrics}
    registry and the {!Tracing} ring, and answers the question neither of
    those can: {e what was the WM doing when it went wrong?}  Metrics are
    point samples and traces need to have been switched on around the
    interesting window; the recorder instead keeps a bounded ring of the
    most recent {e structured activity} — dispatched events, [f.*]
    invocations, injected faults, absorbed X errors, pans, swmcmd lines,
    watchdog stalls — cheaply enough to stay armed in production.

    Two extra pieces make a dump self-contained:

    - a {e state snapshot} source (installed by the WM) is invoked once
      per dump, so the dump carries a compact picture of the window table
      and viewport as they stand, not just the activity tail;
    - {!crash} renders the ring, the snapshot, the full metrics registry
      and the tracing slow-log into one JSON report and writes it with
      tmp+rename atomicity — called from the WM's X-error boundary and
      its event-loop exception handler.

    Like {!Tracing}, everything is a no-op until {!start}: a disabled
    {!record} is one flag check. *)

type t

type entry = {
  ts_ns : int;  (** nanoseconds since the recorder's epoch ({!start}) *)
  kind : string;  (** "event", "function", "fault", "xerror", "pan", ... *)
  what : string;
  attrs : (string * string) list;
}

val create : ?capacity:int -> ?journal_capacity:int -> unit -> t
(** A recorder with a bounded {!Ring} of [capacity] entries (default 512)
    and another of [journal_capacity] replay-journal ops (default 8192).
    Bounded rings never reallocate: the cost of armed recording must not
    depend on how long the WM has been up. *)

val capacity : t -> int
val enabled : t -> bool

val start : t -> unit
(** Clear the ring and start recording (resets the epoch). *)

val stop : t -> unit

val record : t -> kind:string -> ?attrs:(string * string) list -> string -> unit
(** Append an entry, overwriting the oldest once the ring is full.  A
    single flag check when disabled; a caller that builds the entry's
    text or attributes tests {!enabled} first, so that a disabled
    recorder builds nothing either. *)

val entries : t -> entry list
(** Oldest first; at most [capacity] of them. *)

val recorded : t -> int
(** Entries recorded since {!start}. *)

val dropped : t -> int
(** How many of those the ring has already overwritten. *)

(** {1 The replay journal}

    A second ring holding the session's {e inputs} — encoded wire frames,
    device synthesis, fault effects, WM step markers — as opaque op
    strings ({!Replay} owns the grammar).  Entries are diagnostics and may
    drop; a journal that dropped anything can no longer be replayed from a
    fresh server, which is why it gets its own (larger) ring and its own
    drop accounting. *)

val record_op : t -> string -> unit
(** Append an op (a single flag check when disabled).  {!Server} builds
    an op only while its journal is on. *)

val journal_ops : t -> string list
(** Oldest first; at most [journal_capacity] of them. *)

val set_meta : t -> string -> unit
(** Session setup as JSON text — the resources and screen layout a replay
    needs to start an equivalent WM.  Survives {!start}; emitted as the
    report's ["meta"] member. *)

val meta : t -> string option

val journal_snapshot : t -> string -> unit
(** Record a ["snap"] marker op and remember [json] as the state at that
    point.  The WM calls this at the end of every {!step} — a safe point:
    the queue is drained, no handler is mid-flight — so convergence is
    asserted against a state a replay can actually reach.  The report
    carries it as ["journal"."snap"]. *)

(** {1 State snapshots} *)

val set_snapshot_source : t -> (unit -> string) -> unit
(** Install the provider of compact state snapshots.  It must return a
    self-contained JSON value (the WM summarises its window table,
    viewport and iconic/sticky sets).  Called once by each {!dump_json},
    armed or not. *)

(** {1 Crash reports} *)

val write_atomic : path:string -> string -> unit
(** Write via [path ^ ".tmp"] then rename, so a crash mid-write leaves
    either the old file or the new one, never a torn mixture.  Every file
    the WM writes goes through it: crash reports, session places files and
    the flame, flightdump and waterfall exports of [f.query]. *)

val arm_dump : t -> path:string -> unit
(** Crash reports go to [path] (written atomically: [path.tmp] then
    rename).  Until armed, {!crash} only counts. *)

val dumps : t -> int
(** Crash reports written so far. *)

val dump_json :
  t -> reason:string -> metrics:Metrics.t -> tracer:Tracing.t -> string
(** The self-contained report: reason, ring entries, a snapshot taken
    now ([null] without a source), [Metrics.to_json], the replay journal
    and the tracing slow-log. *)

val crash :
  t -> reason:string -> metrics:Metrics.t -> tracer:Tracing.t -> unit
(** Write {!dump_json} to the armed path.  Never raises: a failing dump
    (unwritable path, full disk) is counted in [recorder.dump_errors]
    and otherwise ignored — the flight recorder must not take the plane
    down.  No-op when disabled or unarmed. *)
