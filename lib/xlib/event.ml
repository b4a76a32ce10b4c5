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

let pp_mask ppf mask =
  let label =
    match mask with
    | Substructure_redirect -> "SubstructureRedirect"
    | Substructure_notify -> "SubstructureNotify"
    | Structure_notify -> "StructureNotify"
    | Property_change -> "PropertyChange"
    | Button_press_mask -> "ButtonPress"
    | Button_release_mask -> "ButtonRelease"
    | Key_press_mask -> "KeyPress"
    | Pointer_motion_mask -> "PointerMotion"
    | Enter_leave_mask -> "EnterLeave"
    | Exposure_mask -> "Exposure"
    | Focus_change_mask -> "FocusChange"
  in
  Format.pp_print_string ppf label

type stack_mode = Above | Below

type config_changes = {
  cx : int option;
  cy : int option;
  cw : int option;
  ch : int option;
  cborder : int option;
  cstack : stack_mode option;
  csibling : Xid.t option;
}

let no_changes =
  { cx = None; cy = None; cw = None; ch = None; cborder = None; cstack = None; csibling = None }

type t =
  | Map_request of { window : Xid.t; parent : Xid.t }
  | Configure_request of { window : Xid.t; parent : Xid.t; changes : config_changes }
  | Map_notify of { window : Xid.t }
  | Unmap_notify of { window : Xid.t }
  | Destroy_notify of { window : Xid.t }
  | Reparent_notify of { window : Xid.t; parent : Xid.t; pos : Geom.point }
  | Configure_notify of { window : Xid.t; geom : Geom.rect; border : int; synthetic : bool }
  | Property_notify of { window : Xid.t; name : string; deleted : bool }
  | Button_press of {
      window : Xid.t;
      button : int;
      mods : Keysym.modifiers;
      pos : Geom.point;
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
  | Client_message of { window : Xid.t; name : string; data : string }

let window_of = function
  | Map_request { window; _ }
  | Configure_request { window; _ }
  | Map_notify { window }
  | Unmap_notify { window }
  | Destroy_notify { window }
  | Reparent_notify { window; _ }
  | Configure_notify { window; _ }
  | Property_notify { window; _ }
  | Button_press { window; _ }
  | Button_release { window; _ }
  | Key_press { window; _ }
  | Motion_notify { window; _ }
  | Enter_notify { window }
  | Leave_notify { window }
  | Focus_in { window }
  | Focus_out { window }
  | Expose { window; _ }
  | Client_message { window; _ } -> window

(* Dense event-kind codes matching the wire event codes in
   [Wire.encode_event].  0 is reserved (X errors on the real
   protocol); valid codes are 1..last_event, so handler tables are
   [last_event + 1] entries with slot 0 unused. *)
let code = function
  | Map_request _ -> 1
  | Configure_request _ -> 2
  | Map_notify _ -> 3
  | Unmap_notify _ -> 4
  | Destroy_notify _ -> 5
  | Reparent_notify _ -> 6
  | Configure_notify _ -> 7
  | Property_notify _ -> 8
  | Button_press _ -> 9
  | Button_release _ -> 10
  | Key_press _ -> 11
  | Motion_notify _ -> 12
  | Enter_notify _ -> 13
  | Leave_notify _ -> 14
  | Expose _ -> 15
  | Client_message _ -> 16
  | Focus_in _ -> 17
  | Focus_out _ -> 18

let last_event = 18

let code_names =
  [|
    "Unknown";
    "MapRequest";
    "ConfigureRequest";
    "MapNotify";
    "UnmapNotify";
    "DestroyNotify";
    "ReparentNotify";
    "ConfigureNotify";
    "PropertyNotify";
    "ButtonPress";
    "ButtonRelease";
    "KeyPress";
    "MotionNotify";
    "EnterNotify";
    "LeaveNotify";
    "Expose";
    "ClientMessage";
    "FocusIn";
    "FocusOut";
  |]

let name_of_code c = if c >= 1 && c <= last_event then code_names.(c) else "Unknown"

(* Constant strings so tracing attributes allocate nothing per event. *)
let kind_name t = code_names.(code t)

(* Shed eligibility under overload.  Droppable events describe a latest-wins
   or redrawable observation (pointer position, damage): losing one costs a
   frame of fidelity, never correctness.  Everything else is state-bearing —
   dropping a MapRequest or DestroyNotify desynchronises the WM's model of
   the session — and must never be shed. *)
let droppable_code c = c = 12 (* MotionNotify *) || c = 15 (* Expose *)
let droppable t = droppable_code (code t)

let pp ppf event =
  match event with
  | Map_request { window; parent } ->
      Format.fprintf ppf "MapRequest(win=%a parent=%a)" Xid.pp window Xid.pp parent
  | Configure_request { window; _ } -> Format.fprintf ppf "ConfigureRequest(win=%a)" Xid.pp window
  | Map_notify { window } -> Format.fprintf ppf "MapNotify(win=%a)" Xid.pp window
  | Unmap_notify { window } -> Format.fprintf ppf "UnmapNotify(win=%a)" Xid.pp window
  | Destroy_notify { window } -> Format.fprintf ppf "DestroyNotify(win=%a)" Xid.pp window
  | Reparent_notify { window; parent; pos } ->
      Format.fprintf ppf "ReparentNotify(win=%a parent=%a at=%a)" Xid.pp window Xid.pp parent
        Geom.pp_point pos
  | Configure_notify { window; geom; synthetic; _ } ->
      Format.fprintf ppf "ConfigureNotify(win=%a %a%s)" Xid.pp window Geom.pp_rect geom
        (if synthetic then " synthetic" else "")
  | Property_notify { window; name; deleted } ->
      Format.fprintf ppf "PropertyNotify(win=%a %s%s)" Xid.pp window name
        (if deleted then " deleted" else "")
  | Button_press { window; button; pos; _ } ->
      Format.fprintf ppf "ButtonPress(win=%a btn=%d at=%a)" Xid.pp window button Geom.pp_point pos
  | Button_release { window; button; _ } ->
      Format.fprintf ppf "ButtonRelease(win=%a btn=%d)" Xid.pp window button
  | Key_press { window; keysym; _ } ->
      Format.fprintf ppf "KeyPress(win=%a key=%s)" Xid.pp window keysym
  | Motion_notify { window; pos; _ } ->
      Format.fprintf ppf "MotionNotify(win=%a at=%a)" Xid.pp window Geom.pp_point pos
  | Enter_notify { window } -> Format.fprintf ppf "EnterNotify(win=%a)" Xid.pp window
  | Leave_notify { window } -> Format.fprintf ppf "LeaveNotify(win=%a)" Xid.pp window
  | Focus_in { window } -> Format.fprintf ppf "FocusIn(win=%a)" Xid.pp window
  | Focus_out { window } -> Format.fprintf ppf "FocusOut(win=%a)" Xid.pp window
  | Expose { window; damage = None } -> Format.fprintf ppf "Expose(win=%a)" Xid.pp window
  | Expose { window; damage = Some r } ->
      Format.fprintf ppf "Expose(win=%a %a)" Xid.pp window Geom.pp_rect r
  | Client_message { window; name; data } ->
      Format.fprintf ppf "ClientMessage(win=%a %s %S)" Xid.pp window name data
