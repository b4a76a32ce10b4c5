(** Shared window-manager state.

    One [Ctx.t] per running swm instance: the server connection, per-screen
    state (virtual desktop, panner, root panels, icon holders), the table of
    managed clients, the current interaction mode (idle / interactive move /
    resize / prompting for a target window), and the session-restart table.

    The feature modules ({!Vdesk}, {!Decoration}, {!Icons}, {!Panner},
    {!Functions}, ...) are functions over this state; {!Wm} owns the event
    loop. *)

module Xid = Swm_xlib.Xid
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop

type client = {
  cwin : Xid.t;  (** the client's own window *)
  screen : int;
  instance : string;
  class_ : string;
  mutable frame : Xid.t;  (** decoration window; [cwin] when undecorated *)
  mutable deco : Swm_oi.Wobj.t option;
  mutable client_panel : Swm_oi.Wobj.t option;  (** the special [client] panel *)
  mutable state : Prop.wm_state;
  mutable sticky : bool;
  mutable shaped : bool;
  mutable zoom_saved : (Geom.rect * (int * int)) option;
      (** f.save: frame rect + client size, for f.zoom restore *)
  mutable icon_obj : Swm_oi.Wobj.t option;
  mutable icon_pos : Geom.point option;
  mutable holder : holder option;
  mutable wm_name : string;
  mutable mini : Xid.t;
      (** this client's miniature in the panner, or none: the inverse of
          [panner_minis] *)
  mutable corners : Xid.t list;  (** its resize-corner windows, also in [corners] *)
}

and holder = {
  holder_name : string;
  holder_screen : int;
  mutable holder_obj : Swm_oi.Wobj.t option;
  mutable holder_clients : client list;
  holder_classes : string list;  (** WM_CLASS classes collected; [] = all *)
  hide_when_empty : bool;
  size_to_fit : bool;
  holder_fixed_size : (int * int) option;
      (** a fixed window size makes the holder a scrolling window (§4.1.5) *)
  mutable holder_scroll : int;  (** vertical scroll offset in pixels *)
}

and screen_state = {
  index : int;
  root : Xid.t;
  tk : Swm_oi.Wobj.toolkit;
  mutable vdesk : vdesk option;
  mutable holders : holder list;
  mutable root_panels : Swm_oi.Wobj.t list;
  mutable root_icons : Swm_oi.Wobj.t list;
  mutable menus : (string * Swm_oi.Menu.t) list;
  mutable active_menu : (Swm_oi.Menu.t * client option) option;
  mutable root_bindings : Bindings.binding list;
  mutable hbar : (Xid.t * Xid.t) option;
      (** horizontal desktop scrollbar: (bar, thumb) windows *)
  mutable vbar : (Xid.t * Xid.t) option;  (** vertical scrollbar *)
  mutable focus_policy : focus_policy;  (** the [focusPolicy] resource *)
  mutable damage : damage;  (** what the panner has yet to show; see {!Panner.apply_damage} *)
  mutable n_clients : int;  (** managed clients on this screen; see {!add_client} *)
}

and focus_policy =
  | Focus_none  (** leave input focus alone (default) *)
  | Focus_pointer  (** focus follows the pointer into frames *)
  | Focus_click  (** clicking a frame focuses its client *)

and vdesk = {
  vwins : Xid.t array;  (** one desktop window per virtual desktop *)
  mutable current : int;
  mutable vsize : int * int;
  mutable panner_client : Xid.t;  (** the panner's client window, or none *)
  mutable panner_scale : int;
  mutable panner_outline : Xid.t;
      (** the viewport outline inside the panner, or none before the
          panner's first full reconcile *)
}

(** What the WM changed since the panner was last reconciled.  Each kind
    is recorded where the change happens and applied once, at the end of
    the next [Wm.step], by {!Panner.apply_damage}.  Recording is a no-op on
    a screen without a virtual desktop. *)
and damage = {
  mutable d_full : bool;
      (** desktop switch, desktop resize, panner resize: redo everything *)
  mutable d_viewport : bool;  (** a pan: the outline and scrollbar thumbs *)
  mutable d_restacks : (client * Swm_xlib.Event.stack_mode) list;
      (** raises ([Above]) and lowers ([Below]) of frames, newest first *)
  mutable d_members : client list;
      (** clients that may have joined or left the panner: managed,
          unmanaged, WM_STATE changed, stuck or unstuck *)
  mutable d_moved : client list;  (** clients whose frame geometry changed *)
}

type tier =
  | Tier_full  (** no degradation *)
  | Tier_essential
      (** skip panner refreshes and the dispatch of droppable
          (Motion/Expose) events; titles are still repainted, since the
          PropertyNotify that changes one is never shed *)

val tier_name : tier -> string

type mode =
  | Idle
  | Moving of {
      m_client : client;
      grab_offset : Geom.point;
      m_outline : Xid.t;  (** outline window when moves are not opaque *)
    }
  | Resizing of {
      r_client : client;
      r_start_client : int * int;  (** client size when the resize started *)
      r_pointer : Geom.point;  (** pointer root position at start *)
      r_dir : Geom.point;
          (** +1/-1 per axis: which corner follows the pointer (a top-left
              corner drag anchors the bottom-right) *)
      r_frame0 : Geom.rect;  (** frame geometry at start *)
    }
  | Prompting of Bindings.func_call list
      (** functions waiting for the user to click a target window *)

type t = {
  server : Swm_xlib.Server.t;
  conn : Swm_xlib.Server.conn;
  cfg : Config.t;
  screens : screen_state array;
  clients : client Xid.Tbl.t;  (** keyed by client window *)
  frames : client Xid.Tbl.t;  (** keyed by frame window *)
  corners : client Xid.Tbl.t;  (** resize-corner windows (decoration option) *)
  panner_minis : client Xid.Tbl.t;  (** miniature windows inside the panner *)
  session : Session.table;
  binding_cache : (string, Bindings.binding list) Hashtbl.t;
  mutable mode : mode;
  mutable running : bool;
  mutable restart_requested : bool;
  mutable executed : string list;  (** commands run by f.exec, newest first *)
  mutable last_places : string option;  (** most recent f.places output *)
  mutable identify_win : Xid.t;  (** the f.identify popup, or none *)
  mutable confirm : string -> bool;  (** f.*(multiple) per-window prompt *)
  mutable autosave_path : string option;
      (** the [autosaveFile] resource (or f.autosave's argument): where the
          periodic crash-safe places snapshot goes; [None] disables it *)
  mutable autosave_interval : int;
      (** dispatched events between autosaves ([autosaveInterval], default
          64) — a WM crash loses at most one interval of session state *)
  mutable autosave_pending : int;  (** events since the last autosave *)
  sampler : Swm_xlib.Metrics.sampler;
      (** time-series snapshots of the key counters, fed every
          [stats_interval] dispatched events — the data behind
          [f.query(stats)] *)
  mutable stats_interval : int;
      (** dispatched events between sampler snapshots (32) *)
  mutable stats_pending : int;  (** events since the last sample *)
  mutable watchdog_threshold_ns : int;
      (** wall-time dispatch latency above which the watchdog counts a
          stall (50ms) *)
  mutable tier : tier;
      (** current degradation tier; stepped by {!Governor.tick}, read by
          the redraw/refresh gates in {!Decoration} and {!Panner} *)
  mutable governor_interval : int;
      (** dispatched events between governor ticks (32) *)
  mutable governor_pending : int;  (** events since the last governor tick *)
  mutable gov_calm : int;
      (** consecutive calm governor ticks, toward tier de-escalation *)
  mutable gov_last_stalls : int;
      (** [watchdog.stalls] value at the last governor tick, for deltas *)
  c_tier_transitions : Swm_xlib.Metrics.counter;
      (** [governor.transitions] *)
  c_gov_skipped : Swm_xlib.Metrics.counter;
      (** [governor.events_skipped] — droppable events not dispatched while
          in the essential tier *)
  events_by_kind : Swm_xlib.Metrics.counter_family;
      (** the [wm.dispatch.events{event}] labeled family — always-on
          per-event-kind dispatch attribution, one cached-family increment
          per event *)
  dispatch_counters : Swm_xlib.Metrics.counter array;
      (** [events_by_kind] series resolved once per {!Event.code} (index
          0..{!Event.last_event}), so the per-event increment is an array
          load instead of a label-hash lookup *)
  h_dispatch_wall_ns : Swm_xlib.Metrics.histogram;
      (** [wm.dispatch_wall_ns] (monotonic wall time), resolved once *)
  h_e2e : Swm_xlib.Metrics.histogram array;
      (** [event.e2e_ns{event}] resolved per {!Event.code}: ingress ->
          dispatch-complete wall latency, observed only for events whose
          queue entry carries a live ingress stamp (ledger armed) *)
  mutable fn_trail : string list;
      (** f.* verbs run by the dispatch in flight (newest first); reset by
          {!Wm} per event, appended by {!Functions.execute_at}, and kept in
          the event's fate slot by {!Swm_xlib.Server.ledger_dispatch} *)
  batch_events : Swm_xlib.Event.t array;
      (** the batch {!Wm.step} read with {!Swm_xlib.Server.read_batch} and
          dispatches, reused from batch to batch *)
  batch_stamps : Swm_xlib.Server.stamp array;
      (** the stamps of [batch_events], slot for slot *)
  c_events_dispatched : Swm_xlib.Metrics.counter;
  c_watchdog_stalls : Swm_xlib.Metrics.counter;
  h_panner_refresh_ns : Swm_xlib.Metrics.histogram;
      (** [panner.refresh_ns], resolved once *)
  c_panner_frames : Swm_xlib.Metrics.counter;
      (** [panner.frames_examined], resolved once *)
  atoms : atoms;  (** hot ICCCM/SWM property names, interned at startup *)
  host : string;
  display : string;
}

(** The property names the WM compares or reads per event, interned once
    in the server's atom table so hot paths compare ints instead of
    hashing strings. *)
and atoms = {
  a_wm_name : Swm_xlib.Atom.t;
  a_wm_icon_name : Swm_xlib.Atom.t;
  a_wm_class : Swm_xlib.Atom.t;
  a_wm_command : Swm_xlib.Atom.t;
  a_wm_client_machine : Swm_xlib.Atom.t;
  a_wm_hints : Swm_xlib.Atom.t;
  a_wm_normal_hints : Swm_xlib.Atom.t;
  a_wm_state : Swm_xlib.Atom.t;
  a_wm_transient_for : Swm_xlib.Atom.t;
  a_wm_protocols : Swm_xlib.Atom.t;
  a_swm_root : Swm_xlib.Atom.t;
  a_swm_command : Swm_xlib.Atom.t;
  a_swm_places : Swm_xlib.Atom.t;
  a_swm_result : Swm_xlib.Atom.t;
}

val screen : t -> int -> screen_state
val client_of_window : t -> Xid.t -> client option
(** Resolve a client from either its own window or its frame. *)

val add_client : t -> client -> unit
val remove_client : t -> client -> unit
(** Enter or leave [clients], keeping the screen's [n_clients] count. *)

val clients_of_class : t -> string -> client list
val all_clients : t -> client list
(** In unspecified order. *)

val parsed_bindings : t -> string -> Bindings.binding list
(** Parse-and-cache a bindings resource value; malformed text yields [].
    The cache ([binding_cache]) is emptied when it holds
    {!binding_cache_capacity} texts. *)

val binding_cache_capacity : int

val object_bindings : t -> Swm_oi.Wobj.t -> Bindings.binding list
(** The bindings attribute of an OI object, parsed. *)

val client_scope : client -> Config.client_scope
(** The client's resource-lookup identity (class, instance, shaped, sticky). *)

val place : t -> Xid.t -> Geom.rect -> unit
(** Move and resize a window to the rectangle, issuing no request when it
    is already there. *)

val no_damage : unit -> damage

val damage_full : t -> screen:int -> unit
val damage_viewport : t -> screen:int -> unit
val damage_geometry : t -> client -> unit
val damage_membership : t -> client -> unit

val damage_if_resized : t -> client -> (unit -> unit) -> unit
(** Run the function, then record geometry damage if it changed the size
    of the client's frame. *)

val damage_restack : t -> client -> Swm_xlib.Event.stack_mode -> unit
(** Record that the client's frame went to the top ([Above]) or bottom
    ([Below]) of its siblings without issuing a request (a rebuilt frame
    is created on top). *)

val restack : t -> client -> Swm_xlib.Event.stack_mode -> unit
(** Raise ([Above]) or lower ([Below]) the client's frame and record it:
    every restack of a frame goes through here. *)

val log_src : Logs.src
(** The [Logs] source ("swm"); set its level to [Debug] to trace manage /
    unmanage / pan / function execution. *)

module Log : Logs.LOG
(** Messages to {!log_src}.  [Log.debug (fun m -> m fmt ...)] formats
    nothing unless the source's level is [Debug]. *)
