(** X events and event masks.

    The [window] field of each event is the window the receiving client
    selected on (the "event window"); where the protocol distinguishes a
    subwindow or child, it is carried explicitly. *)

type mask =
  | Substructure_redirect
  | Substructure_notify
  | Structure_notify
  | Property_change
  | Button_press_mask
  | Button_release_mask
  | Key_press_mask
  | Pointer_motion_mask
  | Enter_leave_mask
  | Exposure_mask
  | Focus_change_mask

val pp_mask : Format.formatter -> mask -> unit

type stack_mode = Above | Below

(** Requested configuration changes, each field optional as in a
    ConfigureWindow request. *)
type config_changes = {
  cx : int option;
  cy : int option;
  cw : int option;
  ch : int option;
  cborder : int option;
  cstack : stack_mode option;
  csibling : Xid.t option;
}

val no_changes : config_changes

type t =
  | Map_request of { window : Xid.t; parent : Xid.t }
  | Configure_request of { window : Xid.t; parent : Xid.t; changes : config_changes }
  | Map_notify of { window : Xid.t }
  | Unmap_notify of { window : Xid.t }
  | Destroy_notify of { window : Xid.t }
  | Reparent_notify of { window : Xid.t; parent : Xid.t; pos : Geom.point }
  | Configure_notify of {
      window : Xid.t;
      geom : Geom.rect;  (** for synthetic events, root-relative (ICCCM) *)
      border : int;
      synthetic : bool;
    }
  | Property_notify of { window : Xid.t; name : string; deleted : bool }
  | Button_press of {
      window : Xid.t;
      button : int;
      mods : Keysym.modifiers;
      pos : Geom.point;  (** event-window relative *)
      root_pos : Geom.point;
    }
  | Button_release of {
      window : Xid.t;
      button : int;
      mods : Keysym.modifiers;
      pos : Geom.point;
      root_pos : Geom.point;
    }
  | Key_press of {
      window : Xid.t;
      keysym : Keysym.t;
      mods : Keysym.modifiers;
      pos : Geom.point;
      root_pos : Geom.point;
    }
  | Motion_notify of { window : Xid.t; pos : Geom.point; root_pos : Geom.point }
  | Enter_notify of { window : Xid.t }
  | Leave_notify of { window : Xid.t }
  | Focus_in of { window : Xid.t }
  | Focus_out of { window : Xid.t }
  | Expose of { window : Xid.t; damage : Geom.rect option }
      (** [damage = None] exposes the whole window; [Some r] a
          window-interior rectangle.  The server's event queues merge
          consecutive damage on the same window via {!Region.union}. *)
  | Client_message of { window : Xid.t; name : string; data : string }

val window_of : t -> Xid.t
(** The event window. *)

val code : t -> int
(** Dense per-kind code, identical to the wire event code used by
    {!Wire.encode_event}.  Ranges over [1 .. last_event]; 0 is
    reserved.  Handler tables indexed by [code] need
    [last_event + 1] slots. *)

val last_event : int
(** The highest value {!code} returns (18). *)

val name_of_code : int -> string
(** Protocol name for a kind code ("MapRequest", ...), ["Unknown"] for
    out-of-range codes.  Constant strings; allocation-free. *)

val kind_name : t -> string
(** The X protocol name of the event's kind ("ButtonPress", "Expose", ...);
    a constant string, cheap enough for tracing attributes. *)

val droppable : t -> bool
(** Shed eligibility under overload: [true] only for latest-wins /
    redrawable observations (MotionNotify, Expose).  Everything else is
    state-bearing and must never be shed — see the shed-eligibility table
    in DESIGN.md. *)

val droppable_code : int -> bool
(** {!droppable} by kind code, for callers that only hold a code. *)

val pp : Format.formatter -> t -> unit
