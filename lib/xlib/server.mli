(** An in-process X server simulation.

    Implements the protocol-visible semantics a window manager depends on:
    a window tree with stacking, SubstructureRedirect interception of map
    and configure requests, reparenting, save-sets, typed properties with
    PropertyNotify, pointer/keyboard event synthesis and delivery with
    ancestor propagation, active pointer grabs, multiple screens, and the
    SHAPE extension (region-valued bounding shapes).

    Clients — including the window manager itself — talk to the server
    through connections ({!conn}); each connection has a private event queue
    fed according to the event masks it selected.

    Queues are ring buffers with X-style event compression applied at
    enqueue time (unless disabled with {!set_coalesce}): consecutive
    MotionNotify on the same window collapse to the latest, redundant
    ConfigureNotify sequences fold to the final geometry, and overlapping
    Expose damage merges via {!Region.union}.  {!read_batch},
    {!read_events_stamped} and {!flush_batch} drain a whole batch per call — the cheap path heavy
    clients should prefer over one-at-a-time {!next_event} polling.  A
    {!Metrics} registry ({!metrics}) counts events enqueued / coalesced /
    delivered, the queue high-water mark, and the delivery batch-size
    distribution. *)

type t
type conn

exception Bad_window of Xid.t
exception Bad_access of string
(** Raised e.g. when a second client selects SubstructureRedirect on the
    same window — the X error that stops two WMs running at once. *)

(** {1 Server and connections} *)

type screen_spec = { size : int * int; monochrome : bool }

val default_screen : screen_spec

val create : ?screens:screen_spec list -> unit -> t
(** A server with the given screens (default: one 1152x900 colour screen,
    the Sun-era size swm was developed on). *)

val connect : t -> name:string -> conn
val disconnect : t -> conn -> unit
(** Close a connection: destroys its windows, except that windows some other
    client added to its save-set are first reparented back to the closest
    root, preserving their root-relative position (how clients survive a WM
    restart).

    The work is O(what the connection holds), not O(all windows): each
    connection lists the windows it created, its save set and its
    selections on windows it does not own.  Save-set windows are rescued
    newest entry first.  Then the windows it created that have no ancestor
    it also created are destroyed in creation order, oldest first, each
    with its subtree (children bottom to top, each before its parent). *)

val conn_name : conn -> string

val conn_alive : conn -> bool
(** False once the connection is closed ({!disconnect}, eviction, or a
    fault kill). *)

val set_coalesce : conn -> bool -> unit
(** Enable/disable event compression on this connection's queue (default
    enabled).  Disabling gives the naive one-event-per-notification
    pipeline, kept for comparison benchmarks and tests. *)

val metrics : t -> Metrics.t
(** The server's metrics registry.  Series maintained by the server itself:
    counters [events.enqueued], [events.coalesced], [events.delivered];
    gauge [queue.depth] (per-connection high-water mark); histogram
    [delivery.batch_size]. *)

val tracer : t -> Tracing.t
(** The server's span tracer (disabled until {!Tracing.start}).  The
    server itself records [server.enqueue] / [server.coalesce] instants at
    queue time and a [server.deliver] span around each delivered batch;
    every other pipeline layer (wire decode, WM dispatch, [f.*] functions,
    redraws, pans) nests its spans into the same tracer. *)

val recorder : t -> Recorder.t
(** The server's flight recorder (disabled until {!Recorder.start}).  The
    WM layer feeds it — dispatched events, [f.*] invocations, pans, swmcmd
    lines, absorbed X errors, watchdog stalls — and armed fault plans
    record every injection into it. *)

val profiler : t -> Profile.t
(** The server's profiler (disarmed until {!Profile.start}, usually via
    [f.query(profile,start)]).  It shares this server's metrics
    registry and tracer; while armed it samples GC deltas around every
    dispatched event and folds closed spans into an aggregated call
    tree.  The server also maintains the [events.delivered.by_conn{conn}]
    labeled family (cached per connection at {!connect}), the always-on
    per-client half of attribution. *)

val screen_count : t -> int
val screen_size : t -> screen:int -> int * int
val screen_monochrome : t -> screen:int -> bool
val root : t -> screen:int -> Xid.t
val atoms : t -> Atom.table

(** {1 Windows} *)

(** X's win-gravity at the four corners: where a window moves when its
    parent's size changes by [(dw, dh)].  An east gravity moves it [dw]
    across and a south one [dh] down, so it keeps its distance from that
    corner of the parent; [North_west] leaves it in place. *)
type gravity = North_west | North_east | South_west | South_east

val create_window :
  t ->
  conn ->
  parent:Xid.t ->
  geom:Geom.rect ->
  ?border:int ->
  ?override_redirect:bool ->
  ?event_mask:Event.mask list ->
  ?gravity:gravity ->
  ?background:char ->
  ?label:string ->
  unit ->
  Xid.t
(** One CreateWindow request.

    [event_mask] is CreateWindow's CWEventMask: the connection's selection
    on the new window is made inside this request, as {!select_input} would
    make it (its {!Bad_access} rule included), without a second request.
    The replay journal holds a CreateWindow frame followed by a SelectInput
    frame, because the wire codec's CreateWindow carries no mask.

    [gravity] (default [North_west]) is the window's win-gravity: when a
    configure changes its parent's size, the window moves with the edge or
    centre it names, and no request is issued for the move.  X's
    GravityNotify is not modelled: no event reports the move.  The
    journal does not carry a gravity; only the WM, whose requests are
    never journaled, sets one.

    [background] and [label] are the simulator's stand-ins for window
    contents: a fill character and a text string, both used only by
    {!Render}. *)

val destroy_window : t -> Xid.t -> unit
val window_exists : t -> Xid.t -> bool
val parent_of : t -> Xid.t -> Xid.t
val children_of : t -> Xid.t -> Xid.t list
(** Bottom-to-top stacking order, built on demand from the window's
    sibling links (create, unlink and restack are O(1)). *)

val top_child : t -> Xid.t -> Xid.t
(** The window's topmost child, or {!Xid.none}; O(1). *)

val below_sibling : t -> Xid.t -> Xid.t
(** The sibling directly below the window, or {!Xid.none} at the bottom;
    O(1).  With {!top_child} it walks the children top down without
    building {!children_of}'s list. *)

val geometry : t -> Xid.t -> Geom.rect
(** Parent-relative geometry (of the border's upper-left corner). *)

val border_width : t -> Xid.t -> int
val is_mapped : t -> Xid.t -> bool
val is_viewable : t -> Xid.t -> bool
(** Mapped, and all ancestors mapped. *)

val override_redirect : t -> Xid.t -> bool
val screen_of_window : t -> Xid.t -> int
val owner_of : t -> Xid.t -> conn

val set_label : t -> Xid.t -> string option -> unit
val label_of : t -> Xid.t -> string option
val background_of : t -> Xid.t -> char option

val set_art : t -> Xid.t -> string list option -> unit
(** Character-art window contents (e.g. a {!Bitmap} drawn by {!Render}
    below the label). *)

val art_of : t -> Xid.t -> string list option

val translate_coordinates : t -> src:Xid.t -> dst:Xid.t -> Geom.point -> Geom.point
val root_geometry : t -> Xid.t -> Geom.rect
(** The window's rectangle in root coordinates. *)

(** {1 Mapping, configuration, reparenting} *)

val map_window : t -> conn -> Xid.t -> unit
(** If another client holds SubstructureRedirect on the parent and the window
    is not override-redirect, a [Map_request] is sent to it instead. *)

val map_subwindows : t -> conn -> Xid.t -> unit
(** X's MapSubwindows, one request: every unmapped child of the window, top
    to bottom, is mapped as {!map_window} would map it (redirect,
    MapNotify and Expose alike).  Mapped children are skipped.  The replay
    journal holds one MapWindow frame per child it touched, in that
    order. *)

val unmap_window : t -> conn -> Xid.t -> unit

val configure_window : t -> conn -> Xid.t -> Event.config_changes -> unit
(** Subject to redirect interception like {!map_window}. *)

val move_resize : t -> conn -> Xid.t -> Geom.rect -> unit
val raise_window : t -> conn -> Xid.t -> unit
val lower_window : t -> conn -> Xid.t -> unit

val reparent_window : t -> conn -> Xid.t -> new_parent:Xid.t -> pos:Geom.point -> unit
val add_to_save_set : t -> conn -> Xid.t -> unit
val remove_from_save_set : t -> conn -> Xid.t -> unit

(** {1 Properties} *)

val change_property : t -> conn -> Xid.t -> name:string -> Prop.value -> unit
val append_string_property : t -> conn -> Xid.t -> name:string -> string -> unit
(** Append a line to a [Prop.String] property (creating it if missing) —
    the mechanism swmhints and swmcmd use on the root window. *)

val get_property : t -> Xid.t -> name:string -> Prop.value option
val delete_property : t -> conn -> Xid.t -> name:string -> unit

(** Properties are stored keyed by interned atom; the [~name] API above
    interns (or probes) per call.  Hot paths intern once and use the
    atom-keyed variants. *)

val intern_name : t -> string -> Atom.t
(** Intern in this server's atom table (idempotent). *)

val interned : t -> string -> Atom.t option
(** The atom for [name] if it was ever interned, without creating it. *)

val get_property_atom : t -> Xid.t -> Atom.t -> Prop.value option
(** [get_property] without the per-read string hash/compare. *)

(** {1 Events} *)

val select_input : t -> conn -> Xid.t -> Event.mask list -> unit
(** Replaces the connection's mask set on that window.  Raises
    {!Bad_access} if [Substructure_redirect] is requested while another
    connection already holds it. *)

val selected_masks : t -> conn -> Xid.t -> Event.mask list

val pending : conn -> int
(** Number of queue entries waiting (a coalesced multi-rectangle Expose
    counts once even though it may expand to several events). *)

val next_event : conn -> Event.t option
(** The next event, one at a time — the drain the twm-like and gwm-like
    baselines use. *)

type stamp = { mutable seq : int; mutable ingress_ns : int; mutable slot : int }
(** An event's ingress identity: the fleet-wide sequence id allocated at
    enqueue, the monotonic enqueue time ([0] while the ledger is
    disarmed), and the fate-ring slot its [delivered] record went to ([-1]
    while the ledger is disarmed), which {!ledger_dispatch} writes.  Every
    event expanded from one coalesced Damage entry shares that entry's
    stamp.  Mutable only so {!read_batch} can refill the caller's
    stamps. *)

val read_events_stamped : conn -> max:int -> (Event.t * stamp) list
(** Drain up to [max] events in one call, each with its ingress stamp — the
    batched counterpart of {!next_event}, and what the WM drains so
    dispatch can measure ingress-to-effect latency and tag spans, recorder
    entries and waterfalls with the triggering seq.  Records the batch size
    in [delivery.batch_size]. *)

val flush_batch : conn -> Event.t list
(** Drain everything queued, without stamps. *)

val read_batch : conn -> Event.t array -> stamp array -> int
(** [read_batch conn events stamps] is {!read_events_stamped} with
    [max = Array.length events], written into the caller's arrays: event
    [i] goes to [events.(i)] and its stamp is copied into [stamps.(i)]
    ([stamps] at least as long as [events]).  Returns how many were read.
    It pops, fates and counts exactly as {!read_events_stamped} does, and
    allocates nothing per event but an Expose's expansion.  While the
    ledger is armed, a batch that reads anything reads the clock once, and
    that reading is the time of every fate it records ({!read_ns}).  The
    WM drains its queue with it. *)

val read_ns : conn -> int
(** The clock reading of the connection's last {!read_batch}: the time of
    every fate that batch recorded, which the WM takes as the start of its
    first dispatch.  [0] when that batch read nothing or the ledger was
    disarmed. *)

val damage_window : t -> Xid.t -> Geom.rect -> unit
(** Post an Expose with a window-interior damage rectangle to every
    connection selecting [Exposure_mask] there.  Overlapping damage merges
    in the receivers' queues.  A rectangle with no area queues nothing. *)

val send_event : t -> conn -> dest:Xid.t -> Event.t -> unit
(** Deliver an event directly to the owner of [dest] and to every connection
    selecting [Structure_notify] there (how the WM sends synthetic
    ConfigureNotify, and how swmcmd-style ClientMessages travel). *)

(** {1 Pointer and keyboard} *)

val pointer_pos : t -> Geom.point
val pointer_screen : t -> int
val warp_pointer : t -> screen:int -> Geom.point -> unit
(** Moves the pointer, generating Enter/Leave and Motion events. *)

val window_at_pointer : t -> Xid.t
(** The topmost viewable window containing the pointer (shape-aware);
    the root window if nothing else matches. *)

val window_at : t -> screen:int -> Geom.point -> Xid.t

val press_button : t -> ?mods:Keysym.modifiers -> int -> unit
val release_button : t -> ?mods:Keysym.modifiers -> int -> unit
val press_key : t -> ?mods:Keysym.modifiers -> Keysym.t -> unit
(** Synthesise device input at the current pointer position.  The event is
    delivered to the grab holder if a pointer grab is active, otherwise to
    connections selecting on the window under the pointer, propagating to
    ancestors until some connection has selected the event type. *)

val grab_pointer : t -> conn -> Xid.t -> unit
val ungrab_pointer : t -> conn -> unit
val pointer_grabbed : t -> bool

val set_input_focus : t -> conn -> Xid.t -> unit
val input_focus : t -> Xid.t

(** {1 SHAPE extension} *)

val shape_set : t -> conn -> Xid.t -> Region.t -> unit
(** Set the window-relative bounding shape. *)

val shape_clear : t -> conn -> Xid.t -> unit
val shape_get : t -> Xid.t -> Region.t option
val is_shaped : t -> Xid.t -> bool

(** {1 Introspection for tests and rendering} *)

val all_windows : t -> Xid.t list
val window_count : t -> int
val request_count : t -> int
(** Number of protocol requests processed so far — the simulator's
    stand-in for wire traffic, used by the toolkit-overhead benches.  One
    per request on the X wire: a {!create_window} with an [event_mask]
    and a {!map_subwindows} count one each. *)

(** {1 Fault injection}

    An armed {!Fault} plan fires at request boundaries: before a request
    executes, the server may destroy an unprotected client's window, kill
    an unprotected connection (full {!disconnect} semantics: save-set
    rescue then resource destruction), or stall one (its queue stops
    delivering until the next stall fault un-stalls it).  This is how a
    chaos test schedules the "client died between two WM operations"
    race deterministically: the very next WM request touching the victim
    raises {!Bad_window}, exactly as a real server would answer.

    String property writes from unprotected connections may additionally
    be garbled ({!Fault.draw_property}), and {!Wire_conn} applies frame
    faults to submitted bytes.  Every injection is counted in
    {!metrics} ([faults.*]) and stamped as a [fault.*] tracing instant. *)

val arm_faults : t -> ?protect:conn list -> Fault.plan -> Fault.t
(** Arm a plan.  [protect] lists connections faults must never
    victimise (pass the WM's own connection: a real X server does not
    destroy the WM's resources behind its back); their property writes
    are never garbled either.  Replaces any previously armed plan. *)

val disarm_faults : t -> unit
val faults : t -> Fault.t option
(** The armed harness, for fault accounting mid-run. *)

val stalled : conn -> bool
val set_stalled : conn -> bool -> unit
(** Manual stall control for tests: a stalled connection enqueues
    events but nothing is delivered.  Wakes the
    connection into the health tick's active set. *)

val flood_conn : t -> conn -> burst:int -> unit
(** Deliver an event storm (alternating Motion/Expose over the victim's
    own windows) into one connection's queue through the normal delivery
    path — the {!Fault.Flood_events} mechanism, also callable directly by
    benches.  Backpressure bounds the queue at its cap. *)

(** {1 Overload protection}

    Per-connection queues are hard-bounded: at the cap, delivery degrades
    through coalesce-harder (fold the event into any same-window entry of
    its class) and then sheds {!Event.droppable} events (drop-oldest),
    counted in [events.shed].  State-bearing events are never shed; if no
    droppable entry can yield a slot they overrun the cap (counted in
    [queue.cap_overruns]).  A {!Health} score per connection turns
    sustained pressure into quarantine (droppable classes shed at enqueue)
    and finally eviction — {!disconnect} with save-set rescue.  The WM's
    journal-exempt connection and fault-protected connections are never
    judged. *)

val queue_cap : t -> int
val set_queue_cap : t -> int -> unit
(** Set the per-connection queue cap (clamped to >= 1) for existing and
    future connections. *)

val set_health_thresholds : t -> Health.thresholds -> unit
(** Raises [Invalid_argument] unless [quarantine_score > 0] (so NaN is
    rejected) and [0 <= decay <= 1]: under other thresholds an
    idle connection would change state on its own, and the active set
    below could not skip it. *)

val health_thresholds : t -> Health.thresholds

(** {2 The active set}

    A health tick costs O(active connections), not O(connected).  The
    server keeps an {e active set}; a connection joins it on anything that
    changes what the tick reads:
    - a queue push or a shed (at enqueue, or while quarantined);
    - {!note_rejected} and {!note_conn_xerror};
    - {!set_stalled} and the fault harness's stall toggle;
    - {!set_journal_exempt};
    - {!arm_faults} and {!disarm_faults}, for every connection protected
      before or after, so for each one whose protection changes.

    A connection is {e at rest} when it is alive and Healthy, its score is
    exactly [0.0], nothing is pending and it is not stalled.  A tick on a
    connection at rest changes nothing observable (only the calm count,
    which matters only while throttled), so a tick drops the members it
    finds at rest and every connection outside the set is at rest.  The
    tick is therefore exactly the full fold ({!health_tick_fold}); tests
    check one against the other.

    {!Health.observe} snaps a Healthy score below [quarantine_score /. 1024]
    to [0.0], so a connection that drains its queue comes to rest within a
    few ticks instead of after the ~1,000 it takes the decay to underflow. *)

val health_tick : t -> unit
(** One quarantine pass over the active set: fold each member's pressure
    signals (queue depth ratio, sheds, rejected frames, absorbed X errors,
    stall contributions) into its {!Health} score, then apply the state
    transitions — throttle, recover, or evict — in ascending connection
    order.  Transitions are recorded (kind ["health"]), traced, and counted
    ([health.quarantined] / [health.recovered] / [health.evicted]).  The WM
    calls this from its governor cadence; tests may call it directly. *)

val max_queue_ratio : t -> float
(** Worst [pending / cap] over live connections — the load governor's
    queue-pressure input.  Folds the active set, which holds every
    connection with something pending. *)

val health_tick_fold : t -> unit
val max_queue_ratio_fold : t -> float
(** The reference: {!health_tick} and {!max_queue_ratio} as a fold over
    every connection, ignoring the active set.  Kept so tests can compare
    the two; the WM never calls them.  The fold never drops members, so a
    server ticked only this way keeps every connection it ever woke. *)

val connection_count : t -> int
(** Open connections. *)

val active_count : t -> int
(** Members of the active set (a closed one leaves at the next tick). *)

val tick_visits : t -> int
(** Connections examined by health ticks since the server was created
    (both {!health_tick} and {!health_tick_fold} count). *)

val disconnect_visits : t -> int
(** Entries examined by {!disconnect} since the server was created: the
    closing connection's save-set entries, the windows it created, and its
    selections on windows it does not own. *)

val note_rejected : conn -> unit
val note_conn_xerror : conn -> unit
(** Health attribution hooks for the wire layer: a rejected frame or an
    absorbed X error counts against the submitting connection. *)

val conn_health : conn -> Health.state
val conn_health_score : conn -> float
val is_throttled : conn -> bool
val shed_count : conn -> int
(** Events shed from this connection's queue so far. *)

(** {1 Lifecycle ledger}

    Every event is stamped at ingress (sequence id + monotonic timestamp
    carried in its queue entry) and every exit from the pipeline records a
    fate: [delivered], [coalesced_into] / [folded] (with the surviving
    entry's seq, so coalescing lineage is queryable), [dropped_oldest] /
    [shed] from the overload ladder, [skipped] by the governor's essential
    tier, or [evicted_with_conn] when quarantine closes the connection.
    The unit of accounting is the queue entry — a multi-rectangle Damage
    expansion counts once — and the conservation invariant

    [enqueued = delivered + coalesced + folded + dropped_oldest + shed
     + skipped + evicted_with_conn + pending]

    holds at every quiescent point ({!ledger_counts}[.lc_balance = 0]),
    checked in the test suites and exposed in [f.query(health)].  Fate counters
    always run; timestamps, the bounded recent-fates ring behind [f.query(fate)]
    and the [event.queue_ns{event}] residency histograms are taken only
    while the ledger is armed (default on). *)

type ledger_counts = {
  lc_enqueued : int;
  lc_delivered : int;
  lc_coalesced : int;
  lc_folded : int;
  lc_dropped : int;
  lc_shed : int;
  lc_skipped : int;
  lc_evicted : int;
  lc_pending : int; (* queue entries still waiting across live conns *)
  lc_balance : int; (* enqueued minus everything else; 0 when conserved *)
}

val ledger_counts : t -> ledger_counts

val set_ledger : t -> bool -> unit
(** Arm/disarm the ledger's measurement half (clock reads, fate-ring
    records, residency histograms).  Fate {e counters} are unconditional:
    conservation holds either way. *)

val ledger_enabled : t -> bool

val ledger_skip : conn -> Event.t -> stamp -> unit
(** Reclassify a delivered entry as governor-skipped ([delivered] was
    counted at pop; the essential tier then refused to dispatch it).
    Idempotent per seq, so an expanded Damage entry reclassifies once no
    matter how many of its rects are refused. *)

val ledger_json : t -> string
(** {!ledger_counts} as one JSON object (plus ["armed"]) — the ["ledger"]
    section of [f.query(health)]. *)

val fate_json : t -> ?conn:string -> ?window:int -> unit -> string
(** The retained fate records (the newest 512, in slots overwritten in
    place), oldest first, optionally filtered by connection name or window
    id, plus the ledger totals — the payload behind
    [f.query(fate,CONN|#WIN)]. *)

val ledger_dispatch :
  conn -> stamp -> t0:int -> t1:int -> requests:int -> fns:string list -> unit
(** Record the dispatch of a delivered event in its entry's fate slot: its
    start and end times, the requests it issued and the f.* verbs it ran
    (newest first).  Does nothing while the ledger is disarmed or once the
    slot holds another fate.  The events of one expanded Damage entry add
    up in the one slot. *)

type dispatch = {
  d_seq : int;
  d_code : int;  (** {!Event.code} *)
  d_ingress_ns : int;  (** [0] when the ledger was disarmed at enqueue *)
  d_start_ns : int;
  d_end_ns : int;
  d_requests : int;
  d_functions : string list;  (** in the order they ran *)
}

val dispatches : conn -> dispatch list
(** The retained [delivered] fates of this connection that carry a
    dispatch, oldest first: the WM's recent-dispatch waterfall is this view
    over its own connection. *)

(** {1 Replay journal}

    When the flight recorder is enabled, every state-changing request a
    client issues is appended to its replay journal ({!Recorder.record_op})
    as an op string — encoded wire frames for protocol requests, compact
    text ops for device synthesis, fault effects and the few requests the
    wire codec cannot carry.  {!Replay} owns the op grammar and re-executes
    a journal against a fresh server. *)

val set_journal_exempt : conn -> bool -> unit
(** Exclude this connection's requests from the journal.  The WM exempts
    its own connection: a replay starts a fresh WM which re-derives every
    WM-issued request itself, so journalling them would double-apply. *)

val with_journal_suspended : t -> (unit -> 'a) -> 'a
(** Run [f] with journalling off — the WM wraps its event dispatch (and
    startup/shutdown) in this so connection-less WM activity (outline
    windows, [f.warpto] warps) stays out of the journal too.  Fault
    effects still journal: they are session inputs, just hostile ones. *)
