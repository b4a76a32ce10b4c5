(** The window manager itself: initialisation, the manage/unmanage
    lifecycle, and the event loop.

    Typical use:

    {[
      let server = Server.create () in
      let wm = Wm.start ~resources:[ Templates.open_look ] server in
      (* ... clients connect, create windows, map them ... *)
      ignore (Wm.step wm)   (* process everything pending *)
    ]} *)

type t = Ctx.t

val start :
  ?resources:string list ->
  ?host:string ->
  ?display:string ->
  Swm_xlib.Server.t ->
  t
(** Connect as the window manager: load the resource strings (in order,
    later overriding earlier; when none are given {!Templates.default} is
    loaded, mirroring swm's fallback configuration), claim
    SubstructureRedirect on every root (raising [Server.Bad_access] if
    another WM is running), create virtual desktops / panners / root panels
    / icon holders / root icons per the resources, read the SWM_PLACES
    session property, and manage all pre-existing client windows. *)

val ctx : t -> Ctx.t

val step : t -> int
(** Drain and handle every pending event; returns how many were handled.
    Call repeatedly after synthesising input or client activity. *)

val dispatch_read :
  t -> Swm_xlib.Event.t -> Swm_xlib.Server.stamp -> t0:int -> int
(** Dispatch one event {!step} read from the WM's queue, starting at [t0]
    (where the previous dispatch ended); returns its end time, read once,
    where the next dispatch starts, or [t0] when the essential tier skips
    the event.  The end time is the one the event's fate slot, the
    watchdog, [wm.dispatch_wall_ns] and [event.e2e_ns] use.  Exported so
    the waterfall's reference recording can drive the queue itself. *)

val manage : t -> Swm_xlib.Xid.t -> unit
(** Bring an (unmanaged, non-override-redirect) top-level window under
    management: read its properties, apply a matching session hint if any,
    choose a position per the USPosition/PPosition rules, decorate, and
    honour the initial state. *)

val unmanage : t -> Ctx.client -> destroyed:bool -> unit

val managed : t -> Swm_xlib.Xid.t -> bool
val find_client : t -> Swm_xlib.Xid.t -> Ctx.client option

val shutdown : t -> unit
(** Disconnect from the server; save-set windows are reparented back to the
    root (how clients survive a WM restart). *)

val dispatch_table_codes : unit -> int list
(** The event-kind codes the precomputed dispatch table explicitly binds
    (in binding order).  The exhaustiveness test pins this against
    [1 .. Event.last_event]: adding an event kind without routing it
    through the table is a test failure, not a silent no-op. *)

val render_screen : t -> screen:int -> string
(** Character rendering of a screen, for tests and figures. *)

val replay_harness :
  Swm_xlib.Replay.report -> Swm_xlib.Server.t -> Swm_xlib.Replay.harness
(** The {!Swm_xlib.Replay} harness for this WM: [start] a fresh instance
    with the report's recorded resources, step it at the journal's [step]
    markers, snapshot it as the flight recorder's state source does. *)

val replay : Swm_xlib.Replay.report -> Swm_xlib.Replay.outcome
(** Re-execute a parsed crash report or repro file against a fresh
    [Server]+WM pair and check convergence: [Replay.run] with
    {!replay_harness}. *)
