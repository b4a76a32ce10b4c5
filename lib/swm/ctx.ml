module Xid = Swm_xlib.Xid
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop
module Server = Swm_xlib.Server
module Wobj = Swm_oi.Wobj

type client = {
  cwin : Xid.t;
  screen : int;
  instance : string;
  class_ : string;
  mutable frame : Xid.t;
  mutable deco : Wobj.t option;
  mutable client_panel : Wobj.t option;
  mutable state : Prop.wm_state;
  mutable sticky : bool;
  mutable shaped : bool;
  mutable zoom_saved : (Geom.rect * (int * int)) option;
  mutable icon_obj : Wobj.t option;
  mutable icon_pos : Geom.point option;
  mutable holder : holder option;
  mutable wm_name : string;
  mutable mini : Xid.t;
  mutable corners : Xid.t list;
}

and holder = {
  holder_name : string;
  holder_screen : int;
  mutable holder_obj : Wobj.t option;
  mutable holder_clients : client list;
  holder_classes : string list;
  hide_when_empty : bool;
  size_to_fit : bool;
  holder_fixed_size : (int * int) option;
  mutable holder_scroll : int;
}

and screen_state = {
  index : int;
  root : Xid.t;
  tk : Wobj.toolkit;
  mutable vdesk : vdesk option;
  mutable holders : holder list;
  mutable root_panels : Wobj.t list;
  mutable root_icons : Wobj.t list;
  mutable menus : (string * Swm_oi.Menu.t) list;
  mutable active_menu : (Swm_oi.Menu.t * client option) option;
  mutable root_bindings : Bindings.binding list;
  mutable hbar : (Xid.t * Xid.t) option; (* horizontal scrollbar: bar, thumb *)
  mutable vbar : (Xid.t * Xid.t) option;
  mutable focus_policy : focus_policy;
  mutable damage : damage;
  mutable n_clients : int;
}

and focus_policy = Focus_none | Focus_pointer | Focus_click

and vdesk = {
  vwins : Xid.t array;
  mutable current : int;
  mutable vsize : int * int;
  mutable panner_client : Xid.t;
  mutable panner_scale : int;
  mutable panner_outline : Xid.t;
}

(* What the WM changed since the panner was last reconciled, recorded where
   the change happens and applied once at the end of each [Wm.step]. *)
and damage = {
  mutable d_full : bool;
  mutable d_viewport : bool;
  mutable d_restacks : (client * Swm_xlib.Event.stack_mode) list; (* newest first *)
  mutable d_members : client list;
  mutable d_moved : client list;
}

(* Degradation tiers: under load the WM sheds its own discretionary work
   before the server sheds events.  Full = everything; Essential = skip
   panner refreshes and dispatching droppable (Motion/Expose) events. *)
type tier = Tier_full | Tier_essential

let tier_name = function Tier_full -> "full" | Tier_essential -> "essential"

type mode =
  | Idle
  | Moving of { m_client : client; grab_offset : Geom.point; m_outline : Xid.t }
  | Resizing of {
      r_client : client;
      r_start_client : int * int;
      r_pointer : Geom.point;
      r_dir : Geom.point; (* +1/-1 per axis: which edges follow the pointer *)
      r_frame0 : Geom.rect;
    }
  | Prompting of Bindings.func_call list

type t = {
  server : Server.t;
  conn : Server.conn;
  cfg : Config.t;
  screens : screen_state array;
  clients : client Xid.Tbl.t;
  frames : client Xid.Tbl.t;
  corners : client Xid.Tbl.t;
  panner_minis : client Xid.Tbl.t;
  session : Session.table;
  binding_cache : (string, Bindings.binding list) Hashtbl.t;
  mutable mode : mode;
  mutable running : bool;
  mutable restart_requested : bool;
  mutable executed : string list;
  mutable last_places : string option;
  mutable identify_win : Xid.t;
  mutable confirm : string -> bool;
  mutable autosave_path : string option;
  mutable autosave_interval : int; (* dispatched events between autosaves *)
  mutable autosave_pending : int; (* events dispatched since the last one *)
  sampler : Swm_xlib.Metrics.sampler;
  mutable stats_interval : int; (* dispatched events between samples *)
  mutable stats_pending : int; (* events since the last sample *)
  mutable watchdog_threshold_ns : int; (* dispatch wall time above = stall *)
  mutable tier : tier; (* current degradation tier (load governor) *)
  mutable governor_interval : int; (* dispatched events between governor ticks *)
  mutable governor_pending : int; (* events since the last governor tick *)
  mutable gov_calm : int; (* consecutive calm ticks toward de-escalation *)
  mutable gov_last_stalls : int; (* watchdog.stalls at the last governor tick *)
  c_tier_transitions : Swm_xlib.Metrics.counter; (* governor.transitions *)
  c_gov_skipped : Swm_xlib.Metrics.counter; (* governor.events_skipped *)
  events_by_kind : Swm_xlib.Metrics.counter_family;
      (* wm.dispatch.events{event} — always-on per-event-kind attribution *)
  dispatch_counters : Swm_xlib.Metrics.counter array;
      (* events_by_kind series resolved per Event.code, so the per-event
         increment is one array load instead of a label-hash lookup *)
  h_dispatch_wall_ns : Swm_xlib.Metrics.histogram; (* wm.dispatch_wall_ns *)
  h_e2e : Swm_xlib.Metrics.histogram array;
      (* event.e2e_ns{event} resolved per Event.code: ingress ->
         dispatch-complete wall latency, observed only for events whose
         entry carries a live ingress stamp (ledger armed) *)
  mutable fn_trail : string list;
      (* f.* verbs run by the dispatch in flight (newest first); reset by
         Wm per event, appended by Functions.execute_at, kept in the
         event's fate slot (Server.ledger_dispatch) *)
  batch_events : Swm_xlib.Event.t array; (* the batch Wm.step dispatches *)
  batch_stamps : Server.stamp array; (* their stamps, slot for slot *)
  c_events_dispatched : Swm_xlib.Metrics.counter; (* wm.events_dispatched *)
  c_watchdog_stalls : Swm_xlib.Metrics.counter; (* watchdog.stalls *)
  h_panner_refresh_ns : Swm_xlib.Metrics.histogram; (* panner.refresh_ns *)
  c_panner_frames : Swm_xlib.Metrics.counter; (* panner.frames_examined *)
  atoms : atoms; (* hot ICCCM/SWM property names, interned once *)
  host : string;
  display : string;
}

(* The property names the WM compares or reads per event, interned in the
   server's atom table at startup so the hot paths compare ints. *)
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

let screen ctx i = ctx.screens.(i)

let client_of_window ctx win =
  match Xid.Tbl.find_opt ctx.clients win with
  | Some _ as found -> found
  | None -> Xid.Tbl.find_opt ctx.frames win

let all_clients ctx = Xid.Tbl.fold (fun _ c acc -> c :: acc) ctx.clients []

let add_client ctx client =
  if not (Xid.Tbl.mem ctx.clients client.cwin) then begin
    let scr = ctx.screens.(client.screen) in
    scr.n_clients <- scr.n_clients + 1
  end;
  Xid.Tbl.replace ctx.clients client.cwin client

let remove_client ctx client =
  if Xid.Tbl.mem ctx.clients client.cwin then begin
    let scr = ctx.screens.(client.screen) in
    scr.n_clients <- scr.n_clients - 1
  end;
  Xid.Tbl.remove ctx.clients client.cwin

let clients_of_class ctx class_ =
  List.filter (fun c -> String.equal c.class_ class_) (all_clients ctx)

(* f.setBindings texts arrive over swmcmd, so the key space is unbounded:
   the cache is emptied when full, as the resource memo is. *)
let binding_cache_capacity = 256

let parsed_bindings ctx src =
  match Hashtbl.find_opt ctx.binding_cache src with
  | Some bs -> bs
  | None ->
      let bs = match Bindings.parse src with Ok bs -> bs | Error _ -> [] in
      if Hashtbl.length ctx.binding_cache >= binding_cache_capacity then
        Hashtbl.reset ctx.binding_cache;
      Hashtbl.replace ctx.binding_cache src bs;
      bs

let object_bindings ctx obj =
  match Wobj.attr obj "bindings" with
  | Some src -> parsed_bindings ctx src
  | None -> []

let client_scope client =
  {
    Config.instance = client.instance;
    class_ = client.class_;
    shaped = client.shaped;
    sticky = client.sticky;
  }

let frame_geometry ctx client = Server.geometry ctx.server client.frame

let no_damage () =
  { d_full = false; d_viewport = false; d_restacks = []; d_members = []; d_moved = [] }

(* Only a screen with a virtual desktop has a panner or scrollbars to
   reconcile; elsewhere recording is one test. *)
let record ctx ~screen f =
  let scr = ctx.screens.(screen) in
  match scr.vdesk with Some _ -> f scr.damage | None -> ()

let push c = function c' :: _ as l when c' == c -> l | l -> c :: l

let damage_full ctx ~screen = record ctx ~screen (fun d -> d.d_full <- true)
let damage_viewport ctx ~screen = record ctx ~screen (fun d -> d.d_viewport <- true)

let damage_geometry ctx client =
  record ctx ~screen:client.screen (fun d -> d.d_moved <- push client d.d_moved)

let damage_membership ctx client =
  record ctx ~screen:client.screen (fun d -> d.d_members <- push client d.d_members)

(* A longer title or label can widen a frame, and so its miniature. *)
let damage_if_resized ctx client f =
  let size () =
    let g = frame_geometry ctx client in
    (g.w, g.h)
  in
  let before = size () in
  f ();
  if size () <> before then damage_geometry ctx client

let damage_restack ctx client mode =
  record ctx ~screen:client.screen (fun d -> d.d_restacks <- (client, mode) :: d.d_restacks)

let restack ctx client mode =
  (match mode with
  | Swm_xlib.Event.Above -> Server.raise_window ctx.server ctx.conn client.frame
  | Swm_xlib.Event.Below -> Server.lower_window ctx.server ctx.conn client.frame);
  damage_restack ctx client mode

let place ctx win r =
  if not (Geom.rect_equal (Server.geometry ctx.server win) r) then
    Server.move_resize ctx.server ctx.conn win r

let log_src = Logs.Src.create "swm" ~doc:"swm window manager"

module Log = (val Logs.src_log log_src : Logs.LOG)
