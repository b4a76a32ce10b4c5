exception Bad_window of Xid.t
exception Bad_access of string

(* -------- lifecycle ledger --------

   Every event is stamped at ingress ([deliver]) with a monotonic
   timestamp and a sequence id carried in its queue entry, and every exit
   from the pipeline records a fate: delivery, one of the coalescer /
   shed-ladder outcomes (with the surviving entry's seq for merges, so
   coalescing lineage is queryable), the governor's essential-tier skip,
   or eviction with the owning connection.  The fate counters always run
   — they are plain ints, and conservation
   ([enqueued = delivered + sum of fates + pending]) must hold whether or
   not anyone is watching — while the timestamps, the bounded ring of
   recent fate records behind [f.query(fate)], and the
   [event.queue_ns{event}] residency histograms are taken only while the
   ledger is armed ({!set_ledger}, default on). *)

type fate =
  | Delivered
  | Coalesced_into
  | Folded
  | Dropped_oldest
  | Shed
  | Skipped
  | Evicted_with_conn

let fate_name = function
  | Delivered -> "delivered"
  | Coalesced_into -> "coalesced_into"
  | Folded -> "folded"
  | Dropped_oldest -> "dropped_oldest"
  | Shed -> "shed"
  | Skipped -> "skipped"
  | Evicted_with_conn -> "evicted_with_conn"

(* One retained fate.  The ring's slots are allocated once and overwritten
   in place: a record per event would live about one minor-heap interval,
   so most would be promoted only to die in the major heap.  A [Delivered]
   fate of the WM's connection also carries the dispatch that consumed it
   ({!ledger_dispatch}): [fs_t1 = 0] until then. *)
type fate_slot = {
  mutable fs_seq : int;
  mutable fs_survivor : int; (* the surviving entry's seq for merges; -1 otherwise *)
  mutable fs_conn : string;
  mutable fs_cid : int;
  mutable fs_code : int;
  mutable fs_window : int;
  mutable fs_fate : fate;
  mutable fs_t_in : int;
  mutable fs_t_fate : int;
  mutable fs_t0 : int; (* dispatch start *)
  mutable fs_t1 : int; (* dispatch end *)
  mutable fs_requests : int; (* requests the dispatch issued *)
  mutable fs_fns : string list; (* f.* verbs it ran, newest first *)
}

(* Recent-fates window behind [f.query(fate)] and [f.query(waterfall)]:
   a storm costs one slot overwrite per event. *)
let fate_ring_capacity = 512

type ledger = {
  mutable lg_armed : bool;
  mutable lg_seq : int;
  mutable lg_enqueued : int;
  mutable lg_delivered : int;
  mutable lg_coalesced : int;
  mutable lg_folded : int;
  mutable lg_dropped : int;
  mutable lg_shed : int;
  mutable lg_skipped : int;
  mutable lg_evicted : int;
  mutable lg_last_skip : int;
      (* a multi-rect Damage entry expands to several events sharing one
         seq; reclassifying delivered->skipped must count the entry once *)
  lg_fates : fate_slot array;
  mutable lg_recorded : int;
      (* fate records written since creation; the next goes to slot
         [lg_recorded mod fate_ring_capacity] *)
  lg_queue_hist : Metrics.histogram array;
      (* event.queue_ns{event} indexed by Event.code, cached at create *)
}

(* Mutable so {!read_batch} can refill a caller's stamps in place. *)
type stamp = { mutable seq : int; mutable ingress_ns : int; mutable slot : int }

let mk_ledger metrics =
  let fam = Metrics.histogram_family metrics ~key:"event" "event.queue_ns" in
  {
    lg_armed = true;
    lg_seq = 0;
    lg_enqueued = 0;
    lg_delivered = 0;
    lg_coalesced = 0;
    lg_folded = 0;
    lg_dropped = 0;
    lg_shed = 0;
    lg_skipped = 0;
    lg_evicted = 0;
    lg_last_skip = 0;
    lg_fates =
      Array.init fate_ring_capacity (fun _ ->
          {
            fs_seq = 0;
            fs_survivor = -1;
            fs_conn = "";
            fs_cid = 0;
            fs_code = 0;
            fs_window = 0;
            fs_fate = Delivered;
            fs_t_in = 0;
            fs_t_fate = 0;
            fs_t0 = 0;
            fs_t1 = 0;
            fs_requests = 0;
            fs_fns = [];
          });
    lg_recorded = 0;
    lg_queue_hist =
      Array.init (Event.last_event + 1) (fun code ->
          Metrics.labeled_histogram fam (Event.name_of_code code));
  }

let fate_bump lg = function
  | Delivered -> lg.lg_delivered <- lg.lg_delivered + 1
  | Coalesced_into -> lg.lg_coalesced <- lg.lg_coalesced + 1
  | Folded -> lg.lg_folded <- lg.lg_folded + 1
  | Dropped_oldest -> lg.lg_dropped <- lg.lg_dropped + 1
  | Shed -> lg.lg_shed <- lg.lg_shed + 1
  | Skipped -> lg.lg_skipped <- lg.lg_skipped + 1
  | Evicted_with_conn -> lg.lg_evicted <- lg.lg_evicted + 1

(* Damage entries surface as Expose on delivery; fate records use the same
   class so lineage queries line up with what the client would have seen. *)
let expose_code = Event.code (Event.Expose { window = Xid.none; damage = None })

(* Queue entries: most events sit as [Plain]; pending expose damage on a
   window is accumulated as a region so overlapping rectangles merge
   instead of queueing one event each.  Each entry carries its ingress
   stamp; coalescing builds fresh entries, so a merge decides explicitly
   which stamp survives (latest-wins for Plain replacement, the original
   for region accumulation). *)
type entry =
  | Plain of { ev : Event.t; seq : int; t_in : int }
  | Damage of {
      dwindow : Xid.t;
      mutable region : Region.t option; (* None = whole window *)
      seq : int;
      t_in : int;
    }

let entry_meta = function
  | Plain { ev; seq; t_in } ->
      (seq, t_in, Event.code ev, Xid.to_int (Event.window_of ev))
  | Damage { dwindow; seq; t_in; _ } ->
      (seq, t_in, expose_code, Xid.to_int dwindow)

(* X's win-gravity at the four corners: where a window moves when its
   parent is resized. *)
type gravity = North_west | North_east | South_west | South_east

type conn = {
  cid : int;
  cname : string;
  ring : entry Ring.t;
  mutable overflow : (Event.t * stamp) list;
      (* events expanded out of a multi-rect [Damage] entry but not yet
         handed to the client; always delivered before the ring.  They
         share the entry's stamp: the entry was accounted once at pop, so
         spilled rects add nothing to the ledger *)
  mutable overflow_len : int;
      (* tracked incrementally so queue-depth accounting never walks the
         spillover list *)
  mutable cap : int;
      (* hard bound on [pending]: at the cap droppable events are shed
         (coalesce-harder first, then drop-oldest); only state-bearing
         events may overrun it *)
  mutable coalesce : bool;
  mutable alive : bool;
  mutable throttled : bool;
      (* quarantine: a throttled connection gets state-bearing events only;
         droppable classes are shed at enqueue until health recovers *)
  health : Health.t;
  mutable h_shed : int; (* cumulative events shed from this queue *)
  mutable h_rejected : int; (* cumulative rejected wire frames *)
  mutable h_xerrors : int; (* cumulative absorbed X errors *)
  mutable h_stalls : int; (* cumulative stall-tick contributions *)
  mutable stalled : bool;
      (* a stalled connection accumulates events but delivers none — the
         fault harness's model of a client that stopped reading *)
  mutable jexempt : bool;
      (* the WM marks its own connection journal-exempt: a replay restarts
         a fresh WM, which re-derives every WM-issued request itself *)
  mutable active : bool; (* a member of [c_active] *)
  m_enqueued : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_delivered : Metrics.counter;
  m_delivered_by : Metrics.counter;
      (* this connection's series in events.delivered.by_conn{conn} — cached
         at connect, so per-client attribution costs one extra increment *)
  m_depth : Metrics.gauge;
  m_batch : Metrics.histogram;
  c_tracer : Tracing.t;
  c_ledger : ledger; (* shared with the server: one ledger fleet-wide *)
  mutable read_ns : int;
      (* the clock reading of the last [read_batch] that read something
         while the ledger was armed: its fates' time; 0 otherwise *)
  c_active : conn Ring.t;
      (* shared with the server: the active set, the only connections a
         health tick visits (see [wake]) *)
  (* What the connection holds, as intrusive lists threaded through the
     window and [hold] records, so closing it visits only its own
     resources and a connection that holds nothing allocates nothing. *)
  mutable owned_first : window; (* windows it created, oldest first *)
  mutable owned_last : window;
  mutable foreign : hold; (* its selections on windows it does not own *)
  mutable saved : hold; (* its save set, newest first *)
}

(* Windows are linked to each other directly.  Each parent keeps its
   children as a doubly linked sibling list, bottom to top, so creating,
   unlinking and restacking a child cost O(1); [nil] ends every list. *)
and window = {
  id : Xid.t;
  mutable screen : int;
  mutable parent : window; (* [nil] for roots *)
  mutable bottom : window; (* lowest child *)
  mutable top : window; (* highest child *)
  mutable below : window; (* next sibling down *)
  mutable above : window; (* next sibling up *)
  mutable o_prev : window; (* the owner's [owned_first] list *)
  mutable o_next : window;
  mutable geom : Geom.rect; (* parent-interior coords of the border corner *)
  mutable border : int;
  mutable mapped : bool;
  mutable w_override : bool;
  mutable background : char option;
  mutable label : string option;
  mutable art : string list option;
  mutable shape : Region.t option; (* window-interior coords *)
  gravity : gravity; (* where a resize of the parent moves it *)
  mutable props : (Atom.t, Prop.value) Hashtbl.t;
      (* keyed by interned name; [no_props] until the first write *)
  mutable selections : hold list; (* one per selecting connection *)
  mutable saved_by : hold list; (* the save-set entries naming it *)
  owner : conn;
}

(* A connection's claim on a window: an event selection ([masks]) or a
   save-set entry ([h_save]).  Save-set entries, and selections on a window
   the connection does not own, are linked into the connection's [saved] or
   [foreign] list through [h_prev]/[h_next]; a selection on its own window
   needs no entry, because closing the connection destroys the window. *)
and hold = {
  h_conn : conn;
  h_win : window;
  h_save : bool;
  mutable masks : Event.mask list;
  mutable h_prev : hold;
  mutable h_next : hold;
}

(* The sentinels that end every intrusive list.  [nil_conn] owns the roots;
   it is never alive and is in no server's connection table, so its queue,
   tracer and ledger are never used; the queue and tracer have one slot. *)
let nil_registry = Metrics.create ()
let nil_counter = Metrics.counter nil_registry "nil"

(* The property table of every window that has never held a property: most
   windows never do (a decoration's subwindows and corners), so a table is
   made at a window's first write.  Nothing is ever added to this one. *)
let no_props : (Atom.t, Prop.value) Hashtbl.t = Hashtbl.create 1

let rec nil =
  {
    id = Xid.none;
    screen = -1;
    parent = nil;
    bottom = nil;
    top = nil;
    below = nil;
    above = nil;
    o_prev = nil;
    o_next = nil;
    geom = Geom.rect 0 0 0 0;
    border = 0;
    mapped = false;
    w_override = false;
    background = None;
    label = None;
    art = None;
    shape = None;
    gravity = North_west;
    props = no_props;
    selections = [];
    saved_by = [];
    owner = nil_conn;
  }

and nil_conn =
  {
    cid = 0;
    cname = "";
    ring = Ring.create ~capacity:1 ();
    overflow = [];
    overflow_len = 0;
    cap = 0;
    coalesce = false;
    alive = false;
    throttled = false;
    health = Health.create ();
    h_shed = 0;
    h_rejected = 0;
    h_xerrors = 0;
    h_stalls = 0;
    stalled = false;
    jexempt = false;
    active = false;
    m_enqueued = nil_counter;
    m_coalesced = nil_counter;
    m_delivered = nil_counter;
    m_delivered_by = nil_counter;
    m_depth = Metrics.gauge nil_registry "nil";
    m_batch = Metrics.histogram nil_registry "nil";
    c_tracer = Tracing.create ~capacity:1 ~slow_capacity:1 ();
    c_ledger = mk_ledger nil_registry;
    read_ns = 0;
    c_active = Ring.create ~capacity:1 ();
    owned_first = nil;
    owned_last = nil;
    foreign = nil_hold;
    saved = nil_hold;
  }

and nil_hold =
  {
    h_conn = nil_conn;
    h_win = nil;
    h_save = false;
    masks = [];
    h_prev = nil_hold;
    h_next = nil_hold;
  }

(* Count a fate of one of [conn]'s queue entries and, while armed, write
   its record at time [t] into the next slot, whose index it returns (-1
   while disarmed).  A delivery also feeds the [event.queue_ns{event}]
   residency histogram from [t]. *)
let record_fate_at conn ~t ~seq ?(survivor = -1) ~code ~window ~t_in fate =
  let lg = conn.c_ledger in
  fate_bump lg fate;
  if lg.lg_armed then begin
    (match fate with
    | Delivered when t_in > 0 -> Metrics.observe lg.lg_queue_hist.(code) (t - t_in)
    | _ -> ());
    let i = lg.lg_recorded mod fate_ring_capacity in
    lg.lg_recorded <- lg.lg_recorded + 1;
    let s = lg.lg_fates.(i) in
    s.fs_seq <- seq;
    s.fs_survivor <- survivor;
    s.fs_conn <- conn.cname;
    s.fs_cid <- conn.cid;
    s.fs_code <- code;
    s.fs_window <- window;
    s.fs_fate <- fate;
    s.fs_t_in <- t_in;
    s.fs_t_fate <- t;
    s.fs_t0 <- 0;
    s.fs_t1 <- 0;
    s.fs_requests <- 0;
    s.fs_fns <- [];
    i
  end
  else -1

(* The same, timed by a clock read of its own. *)
let record_fate conn ~seq ?survivor ~code ~window ~t_in fate =
  let t = if conn.c_ledger.lg_armed then Metrics.now_mono_ns () else 0 in
  ignore (record_fate_at conn ~t ~seq ?survivor ~code ~window ~t_in fate)

type grab = { gconn : conn; gwindow : Xid.t }

type screen_spec = { size : int * int; monochrome : bool }

let default_screen = { size = (1152, 900); monochrome = false }

(* Default per-connection queue cap.  Generous relative to the delivery
   batch size (64) so normal bursts never shed, small enough that a
   flooding client is bounded at a few hundred entries. *)
let default_queue_cap = 512

type t = {
  alloc : Xid.Alloc.t;
  windows : window Xid.Tbl.t;
  screens : (Xid.t * screen_spec) array;
  conns : (int, conn) Hashtbl.t;
  active_set : conn Ring.t;
  mutable tick_visits : int; (* connections examined by health ticks *)
  mutable disconnect_visits : int; (* list entries examined by disconnects *)
  atom_table : Atom.table;
  mutable next_cid : int;
  mutable pointer_screen : int;
  mutable pointer : Geom.point;
  mutable grab : grab option;
  mutable focus : Xid.t;
  mutable requests : int;
  metrics : Metrics.t;
  s_tracer : Tracing.t;
  s_recorder : Recorder.t;
  s_profiler : Profile.t;
  s_ledger : ledger;
  delivered_by_conn : Metrics.counter_family;
  mutable queue_cap : int;
  mutable health_th : Health.thresholds;
  m_shed : Metrics.counter;
  m_shed_state : Metrics.counter;
      (* must stay 0: state-bearing events are never shed; the counter
         exists so dumps and CI gates can assert the invariant *)
  m_overrun : Metrics.counter;
  m_quarantined : Metrics.counter;
  m_unquarantined : Metrics.counter;
  m_evicted : Metrics.counter;
  mutable fault : Fault.t option;
  mutable fault_protected : int list; (* cids faults may never victimise *)
  mutable injecting : bool; (* reentrancy guard: fault execution bumps too *)
  mutable journal_suspended : bool;
      (* the WM wraps its event dispatch in {!with_journal_suspended}: only
         session *inputs* belong in the replay journal, never requests a
         fresh WM would re-issue on its own *)
  mutable journal_busy : bool;
      (* compound requests (disconnect's save-set rescue) journal once at
         the top, not once per nested request *)
}

(* Fault execution needs [destroy_window]/[disconnect], defined below
   [bump]; the indirection is filled in at the bottom of the module. *)
let inject_hook : (t -> unit) ref = ref (fun _ -> ())

let bump server =
  server.requests <- server.requests + 1;
  match server.fault with
  | Some _ when not server.injecting -> !inject_hook server
  | Some _ | None -> ()

let request_count server = server.requests

let lookup server id =
  match Xid.Tbl.find_opt server.windows id with
  | Some w -> w
  | None -> raise (Bad_window id)

let create ?(screens = [ default_screen ]) () =
  let alloc = Xid.Alloc.create () in
  let windows = Xid.Tbl.create 256 in
  let screen_roots =
    List.mapi
      (fun i spec ->
        let id = Xid.Alloc.next alloc in
        let w, h = spec.size in
        let root =
          {
            nil with
            id;
            screen = i;
            geom = Geom.rect 0 0 w h;
            mapped = true;
            w_override = true;
            background = Some '.';
          }
        in
        Xid.Tbl.replace windows id root;
        (id, spec))
      screens
  in
  let metrics = Metrics.create () in
  let s_tracer = Tracing.create () in
  {
    alloc;
    windows;
    screens = Array.of_list screen_roots;
    conns = Hashtbl.create 8;
    active_set = Ring.create ();
    tick_visits = 0;
    disconnect_visits = 0;
    atom_table = Atom.create_table ();
    next_cid = 1;
    pointer_screen = 0;
    pointer = Geom.point 0 0;
    grab = None;
    focus = Xid.none;
    requests = 0;
    metrics;
    s_tracer;
    s_recorder = Recorder.create ();
    s_profiler = Profile.create ~metrics ~tracer:s_tracer ();
    s_ledger = mk_ledger metrics;
    delivered_by_conn =
      Metrics.counter_family metrics ~key:"conn" "events.delivered.by_conn";
    queue_cap = default_queue_cap;
    health_th = Health.default_thresholds;
    m_shed = Metrics.counter metrics "events.shed";
    m_shed_state = Metrics.counter metrics "events.shed.state_bearing";
    m_overrun = Metrics.counter metrics "queue.cap_overruns";
    m_quarantined = Metrics.counter metrics "health.quarantined";
    m_unquarantined = Metrics.counter metrics "health.recovered";
    m_evicted = Metrics.counter metrics "health.evicted";
    fault = None;
    fault_protected = [];
    injecting = false;
    journal_suspended = false;
    journal_busy = false;
  }

let metrics server = server.metrics
let tracer server = server.s_tracer
let recorder server = server.s_recorder
let profiler server = server.s_profiler

let connect server ~name =
  let cid = server.next_cid in
  server.next_cid <- cid + 1;
  let conn =
    {
      cid;
      cname = name;
      ring = Ring.create ();
      overflow = [];
      overflow_len = 0;
      cap = server.queue_cap;
      coalesce = true;
      alive = true;
      throttled = false;
      health = Health.create ();
      h_shed = 0;
      h_rejected = 0;
      h_xerrors = 0;
      h_stalls = 0;
      stalled = false;
      jexempt = false;
      active = false;
      m_enqueued = Metrics.counter server.metrics "events.enqueued";
      m_coalesced = Metrics.counter server.metrics "events.coalesced";
      m_delivered = Metrics.counter server.metrics "events.delivered";
      m_delivered_by = Metrics.labeled_counter server.delivered_by_conn name;
      m_depth = Metrics.gauge server.metrics "queue.depth";
      m_batch = Metrics.histogram server.metrics "delivery.batch_size";
      c_tracer = server.s_tracer;
      c_ledger = server.s_ledger;
      read_ns = 0;
      c_active = server.active_set;
      owned_first = nil;
      owned_last = nil;
      foreign = nil_hold;
      saved = nil_hold;
    }
  in
  Hashtbl.replace server.conns cid conn;
  conn

let set_coalesce conn flag = conn.coalesce <- flag

let conn_name conn = conn.cname
let conn_alive conn = conn.alive

(* The active set.  A connection joins it on anything that changes what the
   health tick reads: a queue push or shed, a rejected frame or absorbed X
   error, a stall toggle, and a change of journal exemption or fault
   protection.  A tick drops the members it finds at rest, so every
   connection outside the set is at rest and the tick is O(active). *)
let wake conn =
  if not conn.active then begin
    conn.active <- true;
    Ring.push conn.c_active conn
  end

(* -------- replay journal taps --------

   Every state-changing request a *client* issues is recorded into the
   flight recorder's journal as an op string ({!Replay} owns the grammar):
   wire-codec frames for protocol requests, compact text ops for device
   synthesis and the few requests the wire codec cannot carry.  The WM's
   own traffic is excluded twice over — its connection is journal-exempt
   and its dispatch runs under {!with_journal_suspended} — because a
   replay restarts a fresh WM that re-derives all of it.  Fault effects
   bypass both exclusions: they are inputs too, just hostile ones.  Two
   requests the codec cannot carry journal as frames that replay to the
   same state: a CreateWindow with an event mask as CreateWindow then
   SelectInput, and MapSubwindows as one MapWindow per child it maps. *)

let journaling server =
  Recorder.enabled server.s_recorder
  && (not server.journal_suspended)
  && (not server.injecting)
  && not server.journal_busy

(* [journaling], for a request [conn] issues. *)
let journaling_conn server conn = journaling server && not conn.jexempt

(* Fault effects must reach the journal even when they fire inside WM
   dispatch (suspended) or under the [injecting] guard. *)
let journaling_faults server =
  Recorder.enabled server.s_recorder && not server.journal_busy

(* Every call site tests one of the three predicates above before it
   builds an op, so neither the op text nor the request a frame encodes is
   made while nothing records it. *)
let journal server op = Recorder.record_op server.s_recorder op

let conn_key conn = Printf.sprintf "%s#%d" conn.cname conn.cid

let journal_frame server conn req =
  journal server
    ("frame " ^ conn_key conn ^ " " ^ Wire.to_hex (Wire.encode_request req))

let set_journal_exempt conn flag =
  conn.jexempt <- flag;
  wake conn

let with_journal_suspended server f =
  let was = server.journal_suspended in
  server.journal_suspended <- true;
  match f () with
  | v ->
      server.journal_suspended <- was;
      v
  | exception e ->
      server.journal_suspended <- was;
      raise e

let mods_bits (m : Keysym.modifiers) =
  (if m.shift then 1 else 0)
  lor (if m.control then 2 else 0)
  lor if m.meta then 4 else 0
let screen_count server = Array.length server.screens

let screen_size server ~screen =
  let _, spec = server.screens.(screen) in
  spec.size

let screen_monochrome server ~screen =
  let _, spec = server.screens.(screen) in
  spec.monochrome

let root server ~screen = fst server.screens.(screen)
let atoms server = server.atom_table

(* -------- event delivery -------- *)

(* X-style event compression at enqueue time, applied only against the
   newest queue entry so relative ordering with other event types is
   preserved: consecutive MotionNotify on the same window keep only the
   latest position, redundant ConfigureNotify sequences (same window, same
   synthetic flag) fold to the final geometry, and consecutive Expose
   damage on the same window merges via Region.union. *)
let try_coalesce conn ~seq ~t_in event =
  conn.coalesce
  &&
  match (event, Ring.peek_back conn.ring) with
  | ( Event.Motion_notify { window; _ },
      Some (Plain { ev = Event.Motion_notify { window = prev; _ }; seq = oseq; t_in = ot }) )
    when Xid.equal window prev ->
      (* Latest-wins replacement: the old observation dies, the incoming
         one (and its stamp) survives. *)
      record_fate conn ~seq:oseq ~survivor:seq
        ~code:(Event.code event) ~window:(Xid.to_int window) ~t_in:ot
        Coalesced_into;
      Ring.replace_back conn.ring (Plain { ev = event; seq; t_in });
      true
  | ( Event.Configure_notify { window; synthetic; _ },
      Some
        (Plain
           {
             ev = Event.Configure_notify { window = prev; synthetic = sprev; _ };
             seq = oseq;
             t_in = ot;
           }) )
    when Xid.equal window prev && synthetic = sprev ->
      record_fate conn ~seq:oseq ~survivor:seq
        ~code:(Event.code event) ~window:(Xid.to_int window) ~t_in:ot
        Coalesced_into;
      Ring.replace_back conn.ring (Plain { ev = event; seq; t_in });
      true
  | Event.Expose { window; damage }, Some (Damage d) when Xid.equal window d.dwindow ->
      (match (d.region, damage) with
      | None, _ -> () (* a whole-window expose already subsumes any rect *)
      | _, None -> d.region <- None
      | Some acc, Some r -> d.region <- Some (Region.union acc (Region.of_rect r)));
      (* Region accumulation: the incoming rect merges into the existing
         damage entry, which keeps its original stamp. *)
      record_fate conn ~seq ~survivor:d.seq
        ~code:expose_code ~window:(Xid.to_int window) ~t_in Coalesced_into;
      true
  | _, (Some _ | None) -> false

(* -------- overload shed policy --------

   Queue depth is bounded by [conn.cap].  At the cap, delivery degrades in
   order: (1) coalesce harder — fold the event into any same-window entry
   anywhere in the ring, not just the newest (sacrifices intra-class
   ordering, allowed for latest-wins classes); (2) shed a droppable event —
   the incoming one, or the oldest droppable entry in the ring when the
   incoming event is state-bearing and needs its slot.  State-bearing
   events are NEVER shed: if no droppable entry can yield a slot they
   overrun the cap (counted in queue.cap_overruns), because desynchronising
   the WM's session model is strictly worse than a bounded overshoot. *)

let queue_depth conn = conn.overflow_len + Ring.length conn.ring

let entry_droppable = function
  | Plain { ev; _ } -> Event.droppable ev
  | Damage _ -> true

(* Fold [event] into any same-window ring entry of its own class.  Only
   called for droppable classes, at the cap. *)
let coalesce_harder conn ~seq ~t_in event =
  let n = Ring.length conn.ring in
  match event with
  | Event.Motion_notify { window; _ } ->
      let rec scan i =
        i >= 0
        &&
        match Ring.get conn.ring i with
        | Some (Plain { ev = Event.Motion_notify { window = prev; _ }; seq = oseq; t_in = ot })
          when Xid.equal prev window ->
            record_fate conn ~seq:oseq ~survivor:seq
              ~code:(Event.code event) ~window:(Xid.to_int window) ~t_in:ot
              Folded;
            Ring.set conn.ring i (Plain { ev = event; seq; t_in });
            true
        | _ -> scan (i - 1)
      in
      scan (n - 1)
  | Event.Expose { window; damage } ->
      let rec scan i =
        i >= 0
        &&
        match Ring.get conn.ring i with
        | Some (Damage d) when Xid.equal d.dwindow window ->
            (match (d.region, damage) with
            | None, _ -> ()
            | _, None -> d.region <- None
            | Some acc, Some r -> d.region <- Some (Region.union acc (Region.of_rect r)));
            record_fate conn ~seq ~survivor:d.seq
              ~code:expose_code ~window:(Xid.to_int window) ~t_in Folded;
            true
        | _ -> scan (i - 1)
      in
      scan (n - 1)
  | _ -> false

let note_shed server conn ~seq ~t_in event =
  Metrics.incr server.m_shed;
  conn.h_shed <- conn.h_shed + 1;
  wake conn;
  record_fate conn ~seq ~code:(Event.code event)
    ~window:(Xid.to_int (Event.window_of event))
    ~t_in Shed;
  (* First shed per connection gets a recorder entry; after that, metrics
     carry the count so a sustained storm cannot wipe the flight ring. *)
  if conn.h_shed = 1 && Recorder.enabled server.s_recorder then
    Recorder.record server.s_recorder ~kind:"shed"
      ~attrs:[ ("conn", conn.cname); ("event", Event.kind_name event) ]
      ("shedding from " ^ conn.cname);
  if Tracing.enabled conn.c_tracer then
    Tracing.instant conn.c_tracer "server.shed"
      ~attrs:[ ("event", Event.kind_name event); ("conn", conn.cname) ]

(* Remove the oldest droppable entry; false when the ring holds only
   state-bearing events.  [survivor] is the seq of the incoming event
   whose slot the victim yields. *)
let shed_oldest_droppable server conn ~survivor =
  let n = Ring.length conn.ring in
  let rec scan i =
    i < n
    &&
    match Ring.get conn.ring i with
    | Some entry when entry_droppable entry ->
        ignore (Ring.remove conn.ring i);
        let oseq, ot, code, window = entry_meta entry in
        record_fate conn ~seq:oseq ~survivor ~code
          ~window ~t_in:ot Dropped_oldest;
        Metrics.incr server.m_shed;
        conn.h_shed <- conn.h_shed + 1;
        if Tracing.enabled conn.c_tracer then
          Tracing.instant conn.c_tracer "server.shed"
            ~attrs:[ ("event", Event.name_of_code code); ("conn", conn.cname) ];
        true
    | _ -> scan (i + 1)
  in
  scan 0

(* An Expose with an empty area (only a SendEvent makes one) is queued as
   it came: a [Damage] entry is never empty, so each one pops as at least
   one event. *)
let push_entry conn ~seq ~t_in event =
  (match event with
  | Event.Expose { window; damage = None } when conn.coalesce ->
      Ring.push conn.ring (Damage { dwindow = window; region = None; seq; t_in })
  | Event.Expose { window; damage = Some r } when conn.coalesce && r.w > 0 && r.h > 0 ->
      Ring.push conn.ring
        (Damage { dwindow = window; region = Some (Region.of_rect r); seq; t_in })
  | _ -> Ring.push conn.ring (Plain { ev = event; seq; t_in }));
  wake conn;
  Metrics.record_max conn.m_depth (queue_depth conn)

let deliver server conn event =
  if conn.alive then begin
      Metrics.incr conn.m_enqueued;
      (* Ingress stamp: the seq always advances (fate conservation runs
         unconditionally); the clock is only read while the ledger is
         armed. *)
      let lg = conn.c_ledger in
      lg.lg_seq <- lg.lg_seq + 1;
      lg.lg_enqueued <- lg.lg_enqueued + 1;
      let seq = lg.lg_seq in
      let t_in = if lg.lg_armed then Metrics.now_mono_ns () else 0 in
      let droppable = Event.droppable event in
      if conn.throttled && droppable then
        (* Quarantined: latest-wins classes are shed outright; the client
           still sees every state-bearing event, so its session model stays
           correct while its delivery budget shrinks. *)
        note_shed server conn ~seq ~t_in event
      else if try_coalesce conn ~seq ~t_in event then begin
        Metrics.incr conn.m_coalesced;
        if Tracing.enabled conn.c_tracer then
          Tracing.instant conn.c_tracer "server.coalesce"
            ~attrs:[ ("event", Event.kind_name event); ("conn", conn.cname) ]
      end
      else if queue_depth conn >= conn.cap then begin
        if droppable then begin
          if coalesce_harder conn ~seq ~t_in event then Metrics.incr conn.m_coalesced
          else if shed_oldest_droppable server conn ~survivor:seq then
            (* drop-oldest: the stalest droppable observation yields its
               slot to the newest one *)
            push_entry conn ~seq ~t_in event
          else note_shed server conn ~seq ~t_in event
        end
        else if shed_oldest_droppable server conn ~survivor:seq then
          push_entry conn ~seq ~t_in event
        else begin
          (* Every queued entry is state-bearing too: overrun the cap
             rather than lose session state. *)
          Metrics.incr server.m_overrun;
          push_entry conn ~seq ~t_in event
        end
      end
      else begin
        if Tracing.enabled conn.c_tracer then
          Tracing.instant conn.c_tracer "server.enqueue"
            ~attrs:[ ("event", Event.kind_name event); ("conn", conn.cname) ];
        push_entry conn ~seq ~t_in event
      end
  end

let selects mask h = List.mem mask h.masks

(* [List.exists (selects mask)] without the closure it allocates. *)
let rec any_selects mask = function
  | [] -> false
  | h :: rest -> selects mask h || any_selects mask rest

let notify server window mask event =
  List.iter (fun h -> if selects mask h then deliver server h.h_conn event) window.selections

(* Deliver a *Notify event per X semantics: StructureNotify selectors on the
   window itself, SubstructureNotify selectors on its parent. *)
let structure_notify server window event =
  notify server window Event.Structure_notify event;
  if window.parent != nil then notify server window.parent Event.Substructure_notify event

let redirect_holder window =
  List.find_map
    (fun h -> if selects Event.Substructure_redirect h then Some h.h_conn else None)
    window.selections

(* -------- the intrusive lists -------- *)

(* Children, bottom to top: [link_below parent w s] puts [w] directly under
   its sibling [s], or on top when [s] is [nil]; [unlink] takes it out.
   Each costs O(1). *)
let link_below parent w s =
  w.parent <- parent;
  w.above <- s;
  if s == nil then begin
    w.below <- parent.top;
    parent.top <- w
  end
  else begin
    w.below <- s.below;
    s.below <- w
  end;
  if w.below == nil then parent.bottom <- w else w.below.above <- w

let link_top parent w = link_below parent w nil

let unlink w =
  let parent = w.parent in
  if w.above == nil then parent.top <- w.below else w.above.below <- w.below;
  if w.below == nil then parent.bottom <- w.above else w.below.above <- w.above;
  w.above <- nil;
  w.below <- nil

(* Bottom to top. *)
let children window =
  let[@tail_mod_cons] rec walk c = if c == nil then [] else c.id :: walk c.above in
  walk window.bottom

(* A connection's windows, oldest first. *)
let own conn w =
  w.o_prev <- conn.owned_last;
  if conn.owned_last == nil then conn.owned_first <- w else conn.owned_last.o_next <- w;
  conn.owned_last <- w

let disown conn w =
  if w.o_prev == nil then conn.owned_first <- w.o_next else w.o_prev.o_next <- w.o_next;
  if w.o_next == nil then conn.owned_last <- w.o_prev else w.o_next.o_prev <- w.o_prev;
  w.o_prev <- nil;
  w.o_next <- nil

(* A connection's [foreign] and [saved] lists, newest first.  Only a hold
   that [listed] says is in a list may be unlinked. *)
let listed h = h.h_save || h.h_win.owner != h.h_conn

let link_hold h =
  let conn = h.h_conn in
  let first = if h.h_save then conn.saved else conn.foreign in
  h.h_next <- first;
  if first != nil_hold then first.h_prev <- h;
  if h.h_save then conn.saved <- h else conn.foreign <- h

let unlink_hold h =
  let conn = h.h_conn in
  (if h.h_prev != nil_hold then h.h_prev.h_next <- h.h_next
   else if h.h_save then conn.saved <- h.h_next
   else conn.foreign <- h.h_next);
  if h.h_next != nil_hold then h.h_next.h_prev <- h.h_prev;
  h.h_prev <- nil_hold;
  h.h_next <- nil_hold

let remove_hold h l = List.filter (fun h' -> h' != h) l

(* -------- window creation / destruction -------- *)

(* Replace [conn]'s selection on [window], under X's rule that one
   connection at a time may hold SubstructureRedirect on a window. *)
let select conn window masks =
  if List.mem Event.Substructure_redirect masks then begin
    match redirect_holder window with
    | Some holder when holder != conn ->
        raise
          (Bad_access
             (Printf.sprintf "SubstructureRedirect on %s already held by %s"
                (Format.asprintf "%a" Xid.pp window.id)
                holder.cname))
    | Some _ | None -> ()
  end;
  (* The newest selection goes first, as delivery order always had it. *)
  match List.find_opt (fun h -> h.h_conn == conn) window.selections with
  | None ->
      if masks <> [] then begin
        let h =
          { h_conn = conn; h_win = window; h_save = false; masks; h_prev = nil_hold;
            h_next = nil_hold }
        in
        if listed h then link_hold h;
        window.selections <- h :: window.selections
      end
  | Some h when masks = [] ->
      if listed h then unlink_hold h;
      window.selections <- remove_hold h window.selections
  | Some h -> (
      h.masks <- masks;
      match window.selections with
      | first :: _ when first == h -> ()
      | l -> window.selections <- h :: remove_hold h l)

(* [event_mask] is CreateWindow's CWEventMask: the selection is made inside
   the one request. *)
let create_window server conn ~parent ~geom ?(border = 0) ?(override_redirect = false)
    ?(event_mask = []) ?(gravity = North_west) ?background ?label () =
  bump server;
  let parent_win = lookup server parent in
  let id = Xid.Alloc.next server.alloc in
  let window =
    {
      nil with
      id;
      screen = parent_win.screen;
      geom;
      border;
      w_override = override_redirect;
      background;
      label;
      gravity;
      owner = conn;
    }
  in
  Xid.Tbl.replace server.windows id window;
  link_top parent_win window;
  own conn window;
  (* Journalled after allocation so the frame carries the id the session
     actually used — the replay side remaps it if its own allocator
     disagrees (it only can on a minimised subset).  The codec's
     CreateWindow carries no event mask, so a SelectInput frame follows. *)
  let journaled = journaling_conn server conn in
  if journaled then
    journal_frame server conn
      (Wire.Create_window { wid = id; parent; geom; border; override_redirect });
  if event_mask <> [] then begin
    if journaled then
      journal_frame server conn (Wire.Select_input { window = id; masks = event_mask });
    select conn window event_mask
  end;
  id

let window_exists server id = Xid.Tbl.mem server.windows id

(* Children first, bottom to top; then the window leaves its parent, the
   lists of the connections holding it, and its owner's list. *)
let rec destroy_tree server window =
  while window.bottom != nil do
    destroy_tree server window.bottom
  done;
  if window.parent != nil then begin
    unlink window;
    structure_notify server window (Event.Destroy_notify { window = window.id })
  end;
  List.iter (fun h -> if listed h then unlink_hold h) window.selections;
  List.iter unlink_hold window.saved_by;
  disown window.owner window;
  let id = window.id in
  if Xid.equal server.focus id then server.focus <- Xid.none;
  (match server.grab with
  | Some g when Xid.equal g.gwindow id -> server.grab <- None
  | Some _ | None -> ());
  Xid.Tbl.remove server.windows id

let destroy_window server id =
  bump server;
  let window = lookup server id in
  if window.parent == nil then invalid_arg "Server.destroy_window: root window"
  else begin
    if journaling server then journal server (Printf.sprintf "destroy %d" (Xid.to_int id));
    destroy_tree server window
  end

(* -------- simple accessors -------- *)

let parent_of server id = (lookup server id).parent.id
let children_of server id = children (lookup server id)
let top_child server id = (lookup server id).top.id
let below_sibling server id = (lookup server id).below.id
let geometry server id = (lookup server id).geom
let border_width server id = (lookup server id).border
let is_mapped server id = (lookup server id).mapped

let is_viewable server id =
  let rec viewable w = w == nil || (w.mapped && viewable w.parent) in
  viewable (lookup server id)

let override_redirect server id = (lookup server id).w_override
let screen_of_window server id = (lookup server id).screen

let owner_of server id =
  let window = lookup server id in
  match Hashtbl.find_opt server.conns window.owner.cid with
  | Some conn -> conn
  | None -> raise (Bad_access "owner connection closed")

let set_label server id label = (lookup server id).label <- label
let label_of server id = (lookup server id).label
let set_art server id art = (lookup server id).art <- art
let art_of server id = (lookup server id).art
let background_of server id = (lookup server id).background

(* Window-interior origin of [window] in root coordinates. *)
let rec interior_origin window =
  if window.parent == nil then Geom.point window.geom.x window.geom.y
  else begin
    let parent_origin = interior_origin window.parent in
    Geom.point
      (parent_origin.px + window.geom.x + window.border)
      (parent_origin.py + window.geom.y + window.border)
  end

let translate_coordinates server ~src ~dst point =
  let so = interior_origin (lookup server src) and d = interior_origin (lookup server dst) in
  Geom.point (point.Geom.px + so.px - d.px) (point.Geom.py + so.py - d.py)

let root_geometry server id =
  let window = lookup server id in
  let origin = interior_origin window in
  Geom.rect (origin.px - window.border) (origin.py - window.border) window.geom.w
    window.geom.h

(* -------- pointer hit-testing -------- *)

let hits child point =
  child.mapped
  && Geom.contains
       (Geom.rect child.geom.x child.geom.y
          (child.geom.w + (2 * child.border))
          (child.geom.h + (2 * child.border)))
       point
  &&
  match child.shape with
  | None -> true
  | Some region ->
      Region.contains region
        (Geom.point
           (point.Geom.px - child.geom.x - child.border)
           (point.Geom.py - child.geom.y - child.border))

(* Topmost viewable descendant containing [point] (window-interior coords of
   [window]); shape-aware.  Children are tried top down, so the first hit
   is the answer. *)
let rec descend window point =
  let rec first c = if c == nil || hits c point then c else first c.below in
  let child = first window.top in
  if child == nil then window.id
  else
    descend child
      (Geom.point
         (point.Geom.px - child.geom.x - child.border)
         (point.Geom.py - child.geom.y - child.border))

let window_at server ~screen point = descend (lookup server (root server ~screen)) point

let window_at_pointer server =
  window_at server ~screen:server.pointer_screen server.pointer

(* -------- mapping -------- *)

(* MapWindow's effect on one window whose request is already counted. *)
let map_one server conn window =
  let parent = window.parent in
  if parent != nil then
    match redirect_holder parent with
    | Some holder when holder != conn && not window.w_override ->
        deliver server holder (Event.Map_request { window = window.id; parent = parent.id })
    | Some _ | None ->
        if not window.mapped then begin
          window.mapped <- true;
          structure_notify server window (Event.Map_notify { window = window.id });
          (* Built only for a selector: the toolkit's windows select none. *)
          if any_selects Event.Exposure_mask window.selections then
            notify server window Event.Exposure_mask
              (Event.Expose { window = window.id; damage = None })
        end

let map_window server conn id =
  bump server;
  if journaling_conn server conn then journal_frame server conn (Wire.Map_window id);
  map_one server conn (lookup server id)

(* X's MapSubwindows: one request maps every unmapped child, top to bottom.
   The journal gets what replays to the same state: a MapWindow frame per
   child, in that order. *)
let map_subwindows server conn id =
  bump server;
  let journaled = journaling_conn server conn in
  let rec each c =
    if c != nil then begin
      let next = c.below in
      if not c.mapped then begin
        if journaled then journal_frame server conn (Wire.Map_window c.id);
        map_one server conn c
      end;
      each next
    end
  in
  each (lookup server id).top

let unmap_window server conn id =
  bump server;
  if journaling_conn server conn then journal_frame server conn (Wire.Unmap_window id);
  let window = lookup server id in
  if window.mapped then begin
    window.mapped <- false;
    structure_notify server window (Event.Unmap_notify { window = id })
  end

(* -------- configuration -------- *)

(* Above or Below a sibling places the window next to it; a sibling that is
   not one (another parent's child, or the window itself) puts the window
   on top, as the list model always did. *)
let apply_stacking server window = function
  | None, _ -> ()
  | Some mode, sibling -> (
      let parent = window.parent in
      let sibling =
        match sibling with
        | None -> None
        | Some s -> (
            match Xid.Tbl.find_opt server.windows s with
            | Some s when s.parent == parent && s != window -> Some s
            | Some _ | None -> Some nil)
      in
      unlink window;
      match (mode, sibling) with
      | _, Some s when s == nil -> link_top parent window
      | Event.Above, None -> link_top parent window
      | Event.Below, None -> link_below parent window parent.bottom
      | Event.Above, Some s -> link_below parent window s.above
      | Event.Below, Some s -> link_below parent window s)

(* Win-gravity: when a window's size changes by (dw, dh), each child moves
   as its gravity says.  X also sends each moved child a GravityNotify;
   that is not modelled. *)
let gravitate window ~dw ~dh =
  let rec each c =
    if c != nil then begin
      let dx = match c.gravity with North_east | South_east -> dw | North_west | South_west -> 0
      and dy = match c.gravity with South_west | South_east -> dh | North_west | North_east -> 0 in
      if dx <> 0 || dy <> 0 then c.geom <- Geom.translate c.geom ~dx ~dy;
      each c.above
    end
  in
  each window.bottom

let do_configure server window (changes : Event.config_changes) =
  let geom = window.geom in
  window.geom <-
    {
      Geom.x = Option.value changes.cx ~default:geom.x;
      y = Option.value changes.cy ~default:geom.y;
      w = Option.value changes.cw ~default:geom.w;
      h = Option.value changes.ch ~default:geom.h;
    };
  let dw = window.geom.w - geom.w and dh = window.geom.h - geom.h in
  if dw <> 0 || dh <> 0 then gravitate window ~dw ~dh;
  (match changes.cborder with Some b -> window.border <- b | None -> ());
  if window.parent != nil then
    apply_stacking server window (changes.cstack, changes.csibling);
  structure_notify server window
    (Event.Configure_notify
       { window = window.id; geom = window.geom; border = window.border; synthetic = false })

let configure_window server conn id changes =
  bump server;
  if journaling_conn server conn then
    journal_frame server conn (Wire.Configure_window (id, changes));
  let window = lookup server id in
  if window.parent == nil then ()
  else begin
    let parent = window.parent in
    match redirect_holder parent with
    | Some holder when holder != conn && not window.w_override ->
        deliver server holder
          (Event.Configure_request { window = id; parent = parent.id; changes })
    | Some _ | None -> do_configure server window changes
  end

let move_resize server conn id (r : Geom.rect) =
  configure_window server conn id
    { Event.no_changes with cx = Some r.x; cy = Some r.y; cw = Some r.w; ch = Some r.h }

let raise_window server conn id =
  configure_window server conn id { Event.no_changes with cstack = Some Event.Above }

let lower_window server conn id =
  configure_window server conn id { Event.no_changes with cstack = Some Event.Below }

(* -------- reparenting and save-set -------- *)

let reparent_window server conn id ~new_parent ~pos =
  bump server;
  if journaling_conn server conn then
    journal_frame server conn (Wire.Reparent_window { window = id; parent = new_parent; pos });
  let window = lookup server id in
  let target = lookup server new_parent in
  if window.parent == nil then invalid_arg "Server.reparent_window: root window";
  (* BadMatch in real X: the new parent may not be the window or one of its
     descendants. *)
  let rec inside w = w == window || (w != nil && inside w.parent) in
  if inside target then raise (Bad_access "reparent would create a cycle");
  let old_parent = window.parent in
  let was_mapped = window.mapped in
  if was_mapped then begin
    window.mapped <- false;
    structure_notify server window (Event.Unmap_notify { window = id })
  end;
  unlink window;
  window.geom <- { window.geom with x = pos.Geom.px; y = pos.Geom.py };
  link_top target window;
  (* Reparenting across screens moves the whole subtree. *)
  if window.screen <> target.screen then begin
    let rec reset_screen w =
      w.screen <- target.screen;
      let rec each c = if c != nil then (reset_screen c; each c.above) in
      each w.bottom
    in
    reset_screen window
  end;
  let event = Event.Reparent_notify { window = id; parent = new_parent; pos } in
  notify server window Event.Structure_notify event;
  notify server old_parent Event.Substructure_notify event;
  notify server target Event.Substructure_notify event;
  if was_mapped then begin
    window.mapped <- true;
    structure_notify server window (Event.Map_notify { window = id })
  end

let add_to_save_set server conn id =
  bump server;
  if journaling_conn server conn then journal_frame server conn (Wire.Add_to_save_set id);
  let window = lookup server id in
  if not (List.exists (fun h -> h.h_conn == conn) window.saved_by) then begin
    let h =
      { h_conn = conn; h_win = window; h_save = true; masks = []; h_prev = nil_hold;
        h_next = nil_hold }
    in
    link_hold h;
    window.saved_by <- h :: window.saved_by
  end

let remove_from_save_set server conn id =
  bump server;
  if journaling_conn server conn then
    journal_frame server conn (Wire.Remove_from_save_set id);
  match Xid.Tbl.find_opt server.windows id with
  | None -> ()
  | Some window -> (
      match List.find_opt (fun h -> h.h_conn == conn) window.saved_by with
      | None -> ()
      | Some h ->
          unlink_hold h;
          window.saved_by <- remove_hold h window.saved_by)

let rec has_ancestor_owned_by window conn =
  let parent = window.parent in
  parent != nil && (parent.owner == conn || has_ancestor_owned_by parent conn)

(* Closing a connection visits only what it holds: its save set, the
   windows it created and its selections on other clients' windows.
   [disconnect_visits] counts those list entries. *)
let disconnect server conn =
  bump server;
  if journaling_conn server conn then journal server ("kill " ^ conn_key conn);
  let was_busy = server.journal_busy in
  server.journal_busy <- true;
  Fun.protect ~finally:(fun () -> server.journal_busy <- was_busy) @@ fun () ->
  conn.alive <- false;
  (* Still-queued entries leave through the ledger, not silently: without
     this flush an eviction strands enqueued-but-never-delivered events and
     the fate-conservation invariant breaks fleet-wide.  Overflow events
     were already accounted when their entry was popped. *)
  let rec flush_evicted () =
    match Ring.pop conn.ring with
    | None -> ()
    | Some entry ->
        let seq, t_in, code, window = entry_meta entry in
        record_fate conn ~seq ~code ~window ~t_in
          Evicted_with_conn;
        flush_evicted ()
  in
  flush_evicted ();
  conn.overflow <- [];
  conn.overflow_len <- 0;
  let visit () = server.disconnect_visits <- server.disconnect_visits + 1 in
  (* Save-set rescue, newest entry first: windows this client reparented
     away from the root are put back, preserving root-relative position.
     The list is copied first: a rescue is a request, and a fault fired by
     it may destroy a window the list still holds. *)
  let rec saved h acc =
    if h == nil_hold then List.rev acc else (visit (); saved h.h_next (h.h_win :: acc))
  in
  List.iter
    (fun window ->
      if Xid.Tbl.mem server.windows window.id && has_ancestor_owned_by window conn
      then begin
        let abs = root_geometry server window.id in
        let screen_root = root server ~screen:window.screen in
        reparent_window server conn window.id ~new_parent:screen_root
          ~pos:(Geom.point abs.x abs.y);
        if not window.mapped then begin
          window.mapped <- true;
          structure_notify server window (Event.Map_notify { window = window.id })
        end
      end)
    (saved conn.saved []);
  let rec drop_saved () =
    let h = conn.saved in
    if h != nil_hold then begin
      unlink_hold h;
      h.h_win.saved_by <- remove_hold h h.h_win.saved_by;
      drop_saved ()
    end
  in
  drop_saved ();
  (* Destroy the windows it created that no other window it created
     contains, oldest first; the rest go with them.  Each destroy is a
     request, so a fault may fire between two of them: test each window
     when its turn comes. *)
  let rec owned w acc = if w == nil then List.rev acc else (visit (); owned w.o_next (w :: acc)) in
  List.iter
    (fun w ->
      if Xid.Tbl.mem server.windows w.id && not (has_ancestor_owned_by w conn) then
        destroy_window server w.id)
    (owned conn.owned_first []);
  (* Drop its selections on windows it does not own. *)
  let rec drop_foreign () =
    let h = conn.foreign in
    if h != nil_hold then begin
      visit ();
      unlink_hold h;
      h.h_win.selections <- remove_hold h h.h_win.selections;
      drop_foreign ()
    end
  in
  drop_foreign ();
  (match server.grab with
  | Some g when g.gconn == conn -> server.grab <- None
  | Some _ | None -> ());
  Hashtbl.remove server.conns conn.cid

(* -------- properties -------- *)

let change_property server conn id ~name value =
  bump server;
  let window = lookup server id in
  let atom = Atom.intern server.atom_table name in
  (* Property fault site: a string write from an unprotected client may
     arrive garbled, so readers must survive malformed property bytes. *)
  let value =
    match (server.fault, value) with
    | Some f, Prop.String s
      when (not server.injecting)
           && (not (List.mem conn.cid server.fault_protected))
           && Fault.draw_property f ->
        Fault.fire f Fault.Garble_property
          ~attrs:[ ("property", name); ("conn", conn.cname) ];
        Prop.String (Fault.garble f s)
    | _ -> value
  in
  if journaling_conn server conn then begin
    match value with
    | Prop.String s ->
        journal_frame server conn (Wire.Change_property { window = id; name; value = s })
    | v ->
        journal server
          (Printf.sprintf "prop %s %d %s %s" (conn_key conn) (Xid.to_int id)
             (Wire.to_hex name)
             (Wire.to_hex (Prop.value_to_text v)))
  end;
  if window.props == no_props then window.props <- Hashtbl.create 8;
  Hashtbl.replace window.props atom value;
  notify server window Event.Property_change
    (Event.Property_notify { window = id; name; deleted = false })

let get_property server id ~name =
  let window = lookup server id in
  match Atom.intern_existing server.atom_table name with
  | None -> None
  | Some atom -> Hashtbl.find_opt window.props atom

(* The hot-path variant: callers holding an interned id (Ctx caches the
   ICCCM atoms) skip the per-read string hash entirely. *)
let get_property_atom server id atom = Hashtbl.find_opt (lookup server id).props atom
let intern_name server name = Atom.intern server.atom_table name
let interned server name = Atom.intern_existing server.atom_table name

let append_string_property server conn id ~name line =
  let existing =
    match get_property server id ~name with
    | Some (Prop.String s) -> s ^ "\n" ^ line
    | Some _ | None -> line
  in
  change_property server conn id ~name (Prop.String existing)

let delete_property server conn id ~name =
  bump server;
  if journaling_conn server conn then
    journal_frame server conn (Wire.Delete_property { window = id; name });
  let window = lookup server id in
  match Atom.intern_existing server.atom_table name with
  | Some atom when Hashtbl.mem window.props atom ->
      Hashtbl.remove window.props atom;
      notify server window Event.Property_change
        (Event.Property_notify { window = id; name; deleted = true })
  | Some _ | None -> ()

(* -------- event selection and queues -------- *)

let select_input server conn id masks =
  bump server;
  if journaling_conn server conn then
    journal_frame server conn (Wire.Select_input { window = id; masks });
  select conn (lookup server id) masks

let selected_masks server conn id =
  match List.find_opt (fun h -> h.h_conn == conn) (lookup server id).selections with
  | Some h -> h.masks
  | None -> []

let pending conn = conn.overflow_len + Ring.length conn.ring

(* A coalesced [Damage] entry expands to one Expose per disjoint rectangle
   of its region: the union of delivered damage is exactly the union of the
   damage enqueued. *)
let events_of_entry = function
  | Plain { ev; _ } -> [ ev ]
  | Damage { dwindow; region = None; _ } ->
      [ Event.Expose { window = dwindow; damage = None } ]
  | Damage { dwindow; region = Some region; _ } ->
      List.map
        (fun r -> Event.Expose { window = dwindow; damage = Some r })
        (Region.rects region)

let stamp_of_entry ~slot = function
  | Plain { seq; t_in; _ } | Damage { seq; t_in; _ } -> { seq; ingress_ns = t_in; slot }

(* Delivery-side ledger accounting, once per popped entry (a multi-rect
   Damage expansion counts once — the unit of conservation is the queue
   entry), at time [t]; returns the fate's slot. *)
let delivered_fate conn ~t entry =
  let seq, t_in, code, window = entry_meta entry in
  record_fate_at conn ~t ~seq ~code ~window ~t_in Delivered

let rec next_event_stamped conn =
  if conn.stalled then None
  else
    match conn.overflow with
  | (event, stamp) :: rest ->
      conn.overflow <- rest;
      conn.overflow_len <- conn.overflow_len - 1;
      Metrics.incr conn.m_delivered;
      Metrics.incr conn.m_delivered_by;
      Some (event, stamp)
  | [] -> (
      match Ring.pop conn.ring with
      | None -> None
      | Some entry -> (
          let t = if conn.c_ledger.lg_armed then Metrics.now_mono_ns () else 0 in
          let slot = delivered_fate conn ~t entry in
          match events_of_entry entry with
          | [] ->
              (* unreachable: a Damage entry is never empty *)
              next_event_stamped conn
          | event :: rest ->
              let stamp = stamp_of_entry ~slot entry in
              conn.overflow <- List.map (fun e -> (e, stamp)) rest;
              (* [rest] was just materialised from one entry, so the walk is
                 over a handful of damage rects, not the queue *)
              conn.overflow_len <- List.length rest;
              Metrics.incr conn.m_delivered;
              Metrics.incr conn.m_delivered_by;
              Some (event, stamp)))

let next_event conn = Option.map fst (next_event_stamped conn)

let read_events_stamped conn ~max =
  (if Tracing.enabled conn.c_tracer then
     Tracing.span conn.c_tracer "server.deliver" ~attrs:[ ("conn", conn.cname) ]
   else fun f -> f ())
  @@ fun () ->
  let rec loop acc n =
    if n >= max then List.rev acc
    else
      match next_event_stamped conn with
      | Some pair -> loop (pair :: acc) (n + 1)
      | None -> List.rev acc
  in
  let events = loop [] 0 in
  (match events with [] -> () | _ -> Metrics.observe conn.m_batch (List.length events));
  events

let flush_batch conn = List.map fst (read_events_stamped conn ~max:max_int)

(* {!read_events_stamped} writing into the caller's arrays: the same pops,
   fates, counters and stamps, without the option, pair, stamp and list
   cells a listed batch allocates per event.  A Damage entry (Expose) still
   allocates its expansion; the WM, the one reader, selects no Exposure.
   Every fate of the batch is timed by the one clock reading [t]. *)
let read_one conn events stamps n event seq t_in slot =
  Metrics.incr conn.m_delivered;
  Metrics.incr conn.m_delivered_by;
  events.(n) <- event;
  let s = stamps.(n) in
  s.seq <- seq;
  s.ingress_ns <- t_in;
  s.slot <- slot

let rec read_into conn ~t events stamps n =
  if n >= Array.length events || conn.stalled then n
  else
    match conn.overflow with
    | (event, stamp) :: rest ->
        conn.overflow <- rest;
        conn.overflow_len <- conn.overflow_len - 1;
        read_one conn events stamps n event stamp.seq stamp.ingress_ns stamp.slot;
        read_into conn ~t events stamps (n + 1)
    | [] -> (
        match Ring.pop conn.ring with
        | None -> n
        | Some (Plain { ev; seq; t_in }) ->
            let slot =
              record_fate_at conn ~t ~seq ~code:(Event.code ev)
                ~window:(Xid.to_int (Event.window_of ev)) ~t_in Delivered
            in
            read_one conn events stamps n ev seq t_in slot;
            read_into conn ~t events stamps (n + 1)
        | Some (Damage _ as entry) -> (
            (* the spec's expansion: the first rect now, the rest spilled *)
            let slot = delivered_fate conn ~t entry in
            match events_of_entry entry with
            | [] -> read_into conn ~t events stamps n
            | event :: rest ->
                let stamp = stamp_of_entry ~slot entry in
                conn.overflow <- List.map (fun e -> (e, stamp)) rest;
                conn.overflow_len <- List.length rest;
                read_one conn events stamps n event stamp.seq stamp.ingress_ns slot;
                read_into conn ~t events stamps (n + 1)))

let read_batch conn events stamps =
  let t =
    if conn.c_ledger.lg_armed && (not conn.stalled) && pending conn > 0 then
      Metrics.now_mono_ns ()
    else 0
  in
  conn.read_ns <- t;
  let n =
    if Tracing.enabled conn.c_tracer then
      Tracing.span conn.c_tracer "server.deliver" ~attrs:[ ("conn", conn.cname) ]
        (fun () -> read_into conn ~t events stamps 0)
    else read_into conn ~t events stamps 0
  in
  if n > 0 then Metrics.observe conn.m_batch n;
  n

let read_ns conn = conn.read_ns

(* Post damage to a window: delivered as Expose to Exposure_mask
   selectors; overlapping damage coalesces in their queues.  An empty area
   exposes nothing, so X sends no event for it. *)
let damage_window server id rect =
  bump server;
  if journaling server then
    journal server
      (Printf.sprintf "damage %d %d %d %d %d" (Xid.to_int id) rect.Geom.x rect.Geom.y
         rect.Geom.w rect.Geom.h);
  let window = lookup server id in
  if rect.Geom.w > 0 && rect.Geom.h > 0 then
    notify server window Event.Exposure_mask
      (Event.Expose { window = id; damage = Some rect })

let send_event server conn ~dest event =
  bump server;
  if journaling_conn server conn then
    journal server
      (Printf.sprintf "send %s %d %s" (conn_key conn) (Xid.to_int dest)
         (Wire.to_hex (Wire.encode_event event)));
  let window = lookup server dest in
  deliver server window.owner event;
  List.iter
    (fun h ->
      if h.h_conn != window.owner && selects Event.Structure_notify h then
        deliver server h.h_conn event)
    window.selections

(* -------- pointer / keyboard -------- *)

let pointer_pos server = server.pointer
let pointer_screen server = server.pointer_screen

(* Deliver a device event: with a grab, relative to the grab window to the
   grabbing client; otherwise propagate from the window under the pointer up
   the ancestor chain to the first window where someone selected [mask]. *)
let deliver_device server mask make_event =
  let root_pos =
    translate_coordinates server
      ~src:(root server ~screen:server.pointer_screen)
      ~dst:(root server ~screen:server.pointer_screen)
      server.pointer
  in
  match server.grab with
  | Some g ->
      let window = lookup server g.gwindow in
      let pos =
        translate_coordinates server
          ~src:(root server ~screen:server.pointer_screen)
          ~dst:g.gwindow server.pointer
      in
      deliver server g.gconn (make_event g.gwindow pos root_pos);
      ignore window
  | None ->
      let rec propagate window =
        if List.exists (selects mask) window.selections then begin
          let id = window.id in
          let pos =
            translate_coordinates server
              ~src:(root server ~screen:server.pointer_screen)
              ~dst:id server.pointer
          in
          notify server window mask (make_event id pos root_pos)
        end
        else if window.parent != nil then propagate window.parent
      in
      propagate (lookup server (window_at_pointer server))

(* Root-first ancestor chain, including [id] itself. *)
let ancestor_chain server id =
  let rec up w acc = if w == nil then acc else up w.parent (w.id :: acc) in
  up (lookup server id) []

let warp_pointer server ~screen point =
  bump server;
  if journaling server then
    journal server (Printf.sprintf "warp %d %d %d" screen point.Geom.px point.Geom.py);
  let before = window_at_pointer server in
  server.pointer_screen <- screen;
  server.pointer <- point;
  let after = window_at_pointer server in
  if not (Xid.equal before after) then begin
    (* X crossing semantics: Leave events from the old window up to (but
       not including) the closest common ancestor, Enter events from below
       the common ancestor down to the new window (NotifyVirtual on the
       intermediate windows). *)
    let chain_a = ancestor_chain server before in
    let chain_b = ancestor_chain server after in
    let rec strip_common a b =
      match (a, b) with
      | x :: a', y :: b' when Xid.equal x y -> strip_common a' b'
      | _ -> (a, b)
    in
    let leaves, enters = strip_common chain_a chain_b in
    List.iter
      (fun w ->
        if Xid.Tbl.mem server.windows w then
          notify server (lookup server w) Event.Enter_leave_mask
            (Event.Leave_notify { window = w }))
      (List.rev leaves);
    List.iter
      (fun w ->
        if Xid.Tbl.mem server.windows w then
          notify server (lookup server w) Event.Enter_leave_mask
            (Event.Enter_notify { window = w }))
      enters
  end;
  deliver_device server Event.Pointer_motion_mask (fun window pos root_pos ->
      Event.Motion_notify { window; pos; root_pos })

let press_button server ?(mods = Keysym.no_mods) button =
  bump server;
  if journaling server then
    journal server (Printf.sprintf "press %d %d" button (mods_bits mods));
  deliver_device server Event.Button_press_mask (fun window pos root_pos ->
      Event.Button_press { window; button; mods; pos; root_pos })

let release_button server ?(mods = Keysym.no_mods) button =
  bump server;
  if journaling server then
    journal server (Printf.sprintf "release %d %d" button (mods_bits mods));
  deliver_device server Event.Button_release_mask (fun window pos root_pos ->
      Event.Button_release { window; button; mods; pos; root_pos })

let press_key server ?(mods = Keysym.no_mods) keysym =
  bump server;
  if journaling server then
    journal server (Printf.sprintf "key %s %d" (Wire.to_hex keysym) (mods_bits mods));
  deliver_device server Event.Key_press_mask (fun window pos root_pos ->
      Event.Key_press { window; keysym; mods; pos; root_pos })

let grab_pointer server conn id =
  bump server;
  if journaling_conn server conn then journal_frame server conn (Wire.Grab_pointer id);
  ignore (lookup server id);
  match server.grab with
  | Some g when g.gconn != conn -> raise (Bad_access "pointer already grabbed")
  | Some _ | None -> server.grab <- Some { gconn = conn; gwindow = id }

let ungrab_pointer server conn =
  bump server;
  if journaling_conn server conn then journal_frame server conn Wire.Ungrab_pointer;
  match server.grab with
  | Some g when g.gconn == conn -> server.grab <- None
  | Some _ | None -> ()

let pointer_grabbed server = server.grab <> None

let set_input_focus server conn id =
  bump server;
  if journaling_conn server conn then journal_frame server conn (Wire.Set_input_focus id);
  ignore (lookup server id);
  let old = server.focus in
  if not (Xid.equal old id) then begin
    (match Xid.Tbl.find_opt server.windows old with
    | Some old_win ->
        notify server old_win Event.Focus_change_mask (Event.Focus_out { window = old })
    | None -> ());
    server.focus <- id;
    notify server (lookup server id) Event.Focus_change_mask
      (Event.Focus_in { window = id })
  end

let input_focus server = server.focus

(* -------- SHAPE -------- *)

let shape_set server conn id region =
  bump server;
  if journaling_conn server conn then
    journal_frame server conn
      (Wire.Shape_rectangles { window = id; rects = Region.rects region });
  (lookup server id).shape <- Some region

let shape_clear server conn id =
  bump server;
  if journaling_conn server conn then
    journal server (Printf.sprintf "shapeclear %d" (Xid.to_int id));
  (lookup server id).shape <- None

let shape_get server id = (lookup server id).shape
let is_shaped server id = (lookup server id).shape <> None

(* -------- introspection -------- *)

let all_windows server = Xid.Tbl.fold (fun id _ acc -> id :: acc) server.windows []
let window_count server = Xid.Tbl.length server.windows

(* -------- fault injection -------- *)

let is_fault_protected server cid = cid = 0 || List.mem cid server.fault_protected

let stalled conn = conn.stalled
let set_stalled conn flag =
  conn.stalled <- flag;
  wake conn

(* Pick deterministically among candidates sorted by a stable key, so the
   victim sequence depends only on the plan seed and the request history. *)
let pick rng = function
  | [] -> None
  | candidates ->
      let arr = Array.of_list candidates in
      Some arr.(Random.State.int rng (Array.length arr))

(* Event storm into one connection's queue: alternating Motion and Expose
   over the victim's own windows (sorted, so replay picks the same
   sequence), defeating newest-entry coalescing.  Everything goes through
   [deliver], so the queue cap and shed policy bound it. *)
let flood_conn server conn ~burst =
  let rec owned w acc = if w == nil then List.rev acc else owned w.o_next (w.id :: acc) in
  let windows = owned conn.owned_first [] in
  let windows =
    match windows with [] -> [| root server ~screen:0 |] | ws -> Array.of_list ws
  in
  let n = Array.length windows in
  for i = 0 to burst - 1 do
    let window = windows.(i mod n) in
    let pos = Geom.point (i land 1023) (i land 63) in
    let event =
      if i land 1 = 0 then Event.Motion_notify { window; pos; root_pos = pos }
      else Event.Expose { window; damage = Some (Geom.rect 0 0 8 8) }
    in
    deliver server conn event
  done

let run_fault server f (action : Fault.action) =
  match action with
  | Fault.Destroy_window -> (
      let candidates =
        Xid.Tbl.fold
          (fun id w acc ->
            if w.parent != nil && not (is_fault_protected server w.owner.cid)
            then id :: acc
            else acc)
          server.windows []
        |> List.sort Xid.compare
      in
      match pick (Fault.rng f) candidates with
      | None -> ()
      | Some victim ->
          Fault.fire f action ~attrs:[ ("window", Format.asprintf "%a" Xid.pp victim) ];
          if journaling_faults server then
            journal server (Printf.sprintf "destroy %d" (Xid.to_int victim));
          destroy_window server victim)
  | Fault.Kill_connection | Fault.Stall_connection -> (
      let candidates =
        Hashtbl.fold
          (fun cid conn acc ->
            if conn.alive && not (is_fault_protected server cid) then conn :: acc
            else acc)
          server.conns []
        |> List.sort (fun a b -> compare a.cid b.cid)
      in
      match pick (Fault.rng f) candidates with
      | None -> ()
      | Some victim ->
          Fault.fire f action ~attrs:[ ("conn", victim.cname) ];
          if action = Fault.Kill_connection then begin
            if journaling_faults server then journal server ("kill " ^ conn_key victim);
            disconnect server victim
          end
          else begin
            if journaling_faults server then
              journal server
                (Printf.sprintf "stall %s %d" (conn_key victim)
                   (if victim.stalled then 0 else 1));
            set_stalled victim (not victim.stalled)
          end)
  | Fault.Flood_events -> (
      let candidates =
        Hashtbl.fold
          (fun cid conn acc ->
            if conn.alive && not (is_fault_protected server cid) then conn :: acc
            else acc)
          server.conns []
        |> List.sort (fun a b -> compare a.cid b.cid)
      in
      match pick (Fault.rng f) candidates with
      | None -> ()
      | Some victim ->
          let burst = Fault.flood_burst f in
          Fault.fire f action
            ~attrs:[ ("conn", victim.cname); ("burst", string_of_int burst) ];
          if journaling_faults server then
            journal server (Printf.sprintf "flood %s %d" (conn_key victim) burst);
          flood_conn server victim ~burst)
  | Fault.Truncate_frame | Fault.Corrupt_frame | Fault.Garble_property ->
      (* Frame faults are applied by Wire_conn, property faults inline in
         change_property; neither reaches the request site. *)
      ()

let maybe_inject server =
  match server.fault with
  | None -> ()
  | Some f ->
      if not server.injecting then begin
        server.injecting <- true;
        Fun.protect
          ~finally:(fun () -> server.injecting <- false)
          (fun () ->
            match Fault.draw_request f with
            | None -> ()
            | Some action -> run_fault server f action)
      end

let () = inject_hook := maybe_inject

(* A connection that gains or loses protection changes what the health
   tick reads: wake every connection protected before or after. *)
let set_fault_protected server cids =
  List.iter
    (fun cid -> Option.iter wake (Hashtbl.find_opt server.conns cid))
    (server.fault_protected @ cids);
  server.fault_protected <- cids

let arm_faults server ?(protect = []) plan =
  let f =
    Fault.arm ~metrics:server.metrics ~tracer:server.s_tracer
      ~recorder:server.s_recorder plan
  in
  server.fault <- Some f;
  set_fault_protected server (List.map (fun conn -> conn.cid) protect);
  f

let disarm_faults server =
  server.fault <- None;
  set_fault_protected server []

let faults server = server.fault

(* -------- overload protection: caps, health, quarantine -------- *)

let queue_cap server = server.queue_cap

let set_queue_cap server cap =
  let cap = max 1 cap in
  server.queue_cap <- cap;
  Hashtbl.iter (fun _ conn -> conn.cap <- cap) server.conns

(* The active set relies on these: with them a tick leaves a connection at
   rest unchanged. *)
let set_health_thresholds server (th : Health.thresholds) =
  if not (th.quarantine_score > 0.0) then
    invalid_arg "Server.set_health_thresholds: quarantine_score must be > 0";
  if not (th.decay >= 0.0 && th.decay <= 1.0) then
    invalid_arg "Server.set_health_thresholds: decay must be in [0, 1]";
  server.health_th <- th

let health_thresholds server = server.health_th

(* Pressure attribution from the wire layer: rejected frames and absorbed
   X errors count against the submitting connection's health. *)
let note_rejected conn =
  conn.h_rejected <- conn.h_rejected + 1;
  wake conn

let note_conn_xerror conn =
  conn.h_xerrors <- conn.h_xerrors + 1;
  wake conn

let conn_health conn = conn.health.Health.state
let conn_health_score conn = conn.health.Health.score
let is_throttled conn = conn.throttled
let shed_count conn = conn.h_shed

let queue_ratio conn = float_of_int (pending conn) /. float_of_int (max 1 conn.cap)

(* Worst queue-depth-to-cap ratio across live connections: the load
   governor's primary input.  A connection with something pending is in the
   active set, so folding the set gives the full fold's answer. *)
let max_queue_ratio server =
  let worst = ref 0.0 in
  Ring.iter
    (fun conn -> if conn.alive then worst := max !worst (queue_ratio conn))
    server.active_set;
  !worst

let max_queue_ratio_fold server =
  Hashtbl.fold
    (fun _ conn acc -> if conn.alive then max acc (queue_ratio conn) else acc)
    server.conns 0.0

let connection_count server = Hashtbl.length server.conns
let active_count server = Ring.length server.active_set
let tick_visits server = server.tick_visits
let disconnect_visits server = server.disconnect_visits

(* -------- lifecycle ledger: queries -------- *)

type ledger_counts = {
  lc_enqueued : int;
  lc_delivered : int;
  lc_coalesced : int;
  lc_folded : int;
  lc_dropped : int;
  lc_shed : int;
  lc_skipped : int;
  lc_evicted : int;
  lc_pending : int;
  lc_balance : int;
}

let set_ledger server flag = server.s_ledger.lg_armed <- flag
let ledger_enabled server = server.s_ledger.lg_armed

(* Pending in conservation terms is ring entries only: overflow events were
   accounted (once, as their entry) when the entry was popped. *)
let ledger_counts server =
  let lg = server.s_ledger in
  let pending =
    Hashtbl.fold
      (fun _ conn acc -> if conn.alive then acc + Ring.length conn.ring else acc)
      server.conns 0
  in
  let accounted =
    lg.lg_delivered + lg.lg_coalesced + lg.lg_folded + lg.lg_dropped + lg.lg_shed
    + lg.lg_skipped + lg.lg_evicted
  in
  {
    lc_enqueued = lg.lg_enqueued;
    lc_delivered = lg.lg_delivered;
    lc_coalesced = lg.lg_coalesced;
    lc_folded = lg.lg_folded;
    lc_dropped = lg.lg_dropped;
    lc_shed = lg.lg_shed;
    lc_skipped = lg.lg_skipped;
    lc_evicted = lg.lg_evicted;
    lc_pending = pending;
    lc_balance = lg.lg_enqueued - accounted - pending;
  }

(* The governor's essential-tier skip happens after delivery, in the WM:
   reclassify the entry from delivered to skipped.  Expanded damage rects
   share one seq, so the reclassification fires once per entry no matter
   how many of its rects the tier refuses. *)
let ledger_skip conn event (stamp : stamp) =
  let lg = conn.c_ledger in
  if stamp.seq <> lg.lg_last_skip then begin
    lg.lg_last_skip <- stamp.seq;
    lg.lg_delivered <- lg.lg_delivered - 1;
    record_fate conn ~seq:stamp.seq ~code:(Event.code event)
      ~window:(Xid.to_int (Event.window_of event))
      ~t_in:stamp.ingress_ns Skipped
  end

let ledger_json server =
  let c = ledger_counts server in
  Printf.sprintf
    "{\"armed\": %b, \"enqueued\": %d, \"delivered\": %d, \"coalesced\": %d, \
     \"folded\": %d, \"dropped_oldest\": %d, \"shed\": %d, \"skipped\": %d, \
     \"evicted_with_conn\": %d, \"pending\": %d, \"balance\": %d}"
    server.s_ledger.lg_armed c.lc_enqueued c.lc_delivered c.lc_coalesced
    c.lc_folded c.lc_dropped c.lc_shed c.lc_skipped c.lc_evicted c.lc_pending
    c.lc_balance

(* The retained fate slots, oldest first. *)
let iter_fates lg f =
  for i = max 0 (lg.lg_recorded - fate_ring_capacity) to lg.lg_recorded - 1 do
    f lg.lg_fates.(i mod fate_ring_capacity)
  done

let fate_json server ?conn:cfilter ?window () =
  let lg = server.s_ledger in
  let keep r =
    (match cfilter with None -> true | Some c -> String.equal r.fs_conn c)
    && match window with None -> true | Some w -> r.fs_window = w
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"fates\": [";
  let first = ref true in
  iter_fates lg (fun r ->
      if keep r then begin
        if not !first then Buffer.add_string b ", ";
        first := false;
        Buffer.add_string b
          (Printf.sprintf
             "{\"seq\": %d, \"event\": %s, \"fate\": %s, \"conn\": %s, \
              \"window\": %d, \"survivor\": %d, \"t_in_ns\": %d, \
              \"t_fate_ns\": %d}"
             r.fs_seq
             (Metrics.json_string (Event.name_of_code r.fs_code))
             (Metrics.json_string (fate_name r.fs_fate))
             (Metrics.json_string r.fs_conn)
             r.fs_window r.fs_survivor r.fs_t_in r.fs_t_fate)
      end);
  Buffer.add_string b (Printf.sprintf "], \"ledger\": %s}" (ledger_json server));
  Buffer.contents b

(* A dispatch is written into its entry's delivered slot, and only while
   the slot still holds that entry: a dispatch that records more than
   [fate_ring_capacity] fates has overwritten it.  The rects of one
   expanded Damage entry share the slot; their dispatches run back to back
   and add up to one. *)
let ledger_dispatch conn (stamp : stamp) ~t0 ~t1 ~requests ~fns =
  let lg = conn.c_ledger in
  if lg.lg_armed && stamp.slot >= 0 then begin
    let s = lg.lg_fates.(stamp.slot) in
    match s.fs_fate with
    | Delivered when s.fs_seq = stamp.seq ->
        if s.fs_t1 = 0 then begin
          s.fs_t0 <- t0;
          s.fs_t1 <- t1;
          s.fs_requests <- requests;
          s.fs_fns <- fns
        end
        else begin
          s.fs_t1 <- t1;
          s.fs_requests <- s.fs_requests + requests;
          s.fs_fns <- fns @ s.fs_fns
        end
    | _ -> ()
  end

type dispatch = {
  d_seq : int;
  d_code : int;
  d_ingress_ns : int;
  d_start_ns : int;
  d_end_ns : int;
  d_requests : int;
  d_functions : string list;
}

let dispatches conn =
  let acc = ref [] in
  iter_fates conn.c_ledger (fun s ->
      match s.fs_fate with
      | Delivered when s.fs_cid = conn.cid && s.fs_t1 <> 0 ->
        acc :=
          {
            d_seq = s.fs_seq;
            d_code = s.fs_code;
            d_ingress_ns = s.fs_t_in;
            d_start_ns = s.fs_t0;
            d_end_ns = s.fs_t1;
            d_requests = s.fs_requests;
            d_functions = List.rev s.fs_fns;
          }
          :: !acc
      | _ -> ());
  List.rev !acc

(* Fold one live connection's pressure signals into its score.  The WM's
   own connection (journal-exempt) and fault-protected connections are
   never judged.  A state change is collected, not applied: eviction
   mutates [server.conns] and the active set. *)
let observe server conn transitions =
  if (not conn.jexempt) && not (is_fault_protected server conn.cid) then begin
    (* A stalled client (stopped reading) accrues a stall contribution
       every tick it stays wedged. *)
    if conn.stalled then conn.h_stalls <- conn.h_stalls + 1;
    match
      Health.observe server.health_th conn.health ~depth_ratio:(queue_ratio conn)
        ~shed:conn.h_shed ~rejected:conn.h_rejected ~xerrors:conn.h_xerrors
        ~stalls:conn.h_stalls
    with
    | Health.No_change -> ()
    | Health.Became state -> transitions := (conn, state) :: !transitions
  end

(* Act on the collected transitions in ascending cid order — quarantine
   throttles delivery, recovery lifts it, eviction is the X "misbehaving
   client" close with save-set rescue (via [disconnect]). *)
let apply_transitions server transitions =
  List.iter
    (fun (conn, state) ->
      (match state with
      | Health.Throttled ->
          conn.throttled <- true;
          Metrics.incr server.m_quarantined
      | Health.Healthy ->
          conn.throttled <- false;
          Metrics.incr server.m_unquarantined
      | Health.Evicted ->
          conn.throttled <- false;
          Metrics.incr server.m_evicted);
      let state_name = Health.state_name state in
      if Recorder.enabled server.s_recorder then
        Recorder.record server.s_recorder ~kind:"health"
          ~attrs:
            [
              ("conn", conn.cname);
              ("state", state_name);
              ("score", Printf.sprintf "%.1f" conn.health.Health.score);
            ]
          (conn.cname ^ " -> " ^ state_name);
      if Tracing.enabled server.s_tracer then
        Tracing.instant server.s_tracer "server.health"
          ~attrs:[ ("conn", conn.cname); ("state", state_name) ];
      if state = Health.Evicted then disconnect server conn)
    (List.sort (fun (a, _) (b, _) -> compare a.cid b.cid) transitions)

(* At rest, a tick changes nothing observable: a Healthy score of exactly 0
   stays 0 (decay is in [0, 1]) and below the quarantine score (> 0), and
   only [calm] counts up, which matters only while throttled. *)
let at_rest conn =
  conn.health.Health.state = Health.Healthy
  && conn.health.Health.score = 0.0
  && pending conn = 0
  && not conn.stalled

(* One health tick over the active set: observe each member, keep the ones
   not at rest (a closed connection leaves), then apply the transitions.
   Observing wakes nothing, so the set holds still while it is filtered. *)
let health_tick server =
  let transitions = ref [] in
  Ring.retain
    (fun conn ->
      server.tick_visits <- server.tick_visits + 1;
      if conn.alive then observe server conn transitions;
      conn.active <- conn.alive && not (at_rest conn);
      conn.active)
    server.active_set;
  apply_transitions server !transitions

(* The specification [health_tick] must match: observe every connection. *)
let health_tick_fold server =
  let transitions = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      server.tick_visits <- server.tick_visits + 1;
      if conn.alive then observe server conn transitions)
    server.conns;
  apply_transitions server !transitions
