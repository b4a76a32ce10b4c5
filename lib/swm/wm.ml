module Metrics = Swm_xlib.Metrics
module Ring = Swm_xlib.Ring
module Tracing = Swm_xlib.Tracing
module Recorder = Swm_xlib.Recorder
module Replay = Swm_xlib.Replay
module Profile = Swm_xlib.Profile
module Json = Swm_xlib.Json
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Atom = Swm_xlib.Atom
module Event = Swm_xlib.Event
module Render = Swm_xlib.Render
module Xrdb = Swm_xrdb.Xrdb
module Wobj = Swm_oi.Wobj
module Menu = Swm_oi.Menu

type t = Ctx.t

let ctx (wm : t) = wm

(* -------- initialisation -------- *)

let root_masks =
  [
    Event.Substructure_redirect;
    Event.Substructure_notify;
    Event.Property_change;
    Event.Button_press_mask;
    Event.Button_release_mask;
    Event.Key_press_mask;
    Event.Pointer_motion_mask;
  ]

let parse_size text ~default =
  match Geom.parse (String.trim text) with
  | Ok { Geom.width = Some w; height = Some h; _ } -> (w, h)
  | Ok _ | Error _ -> default

let setup_screen (ctx : Ctx.t) ~screen =
  let scr = Ctx.screen ctx screen in
  (* Virtual desktop. *)
  (match Config.query1 ctx.cfg ~screen "virtualDesktop" with
  | Some v
    when List.mem (String.lowercase_ascii (String.trim v)) [ "true"; "yes"; "on"; "1" ]
    ->
      let sw, sh = Server.screen_size ctx.server ~screen in
      let size =
        match Config.query1 ctx.cfg ~screen "desktopSize" with
        | Some text -> parse_size text ~default:(sw * 3, sh * 3)
        | None -> (sw * 3, sh * 3)
      in
      let desktops =
        match Config.query1 ctx.cfg ~screen "desktops" with
        | Some v -> ( match int_of_string_opt (String.trim v) with
                      | Some n when n >= 1 -> n
                      | Some _ | None -> 1)
        | None -> 1
      in
      ignore (Vdesk.create ctx ~screen ~size ~desktops ())
  | Some _ | None -> ());
  (* Root bindings. *)
  (match
     Config.query ctx.cfg ~screen ~names:[ "root"; "bindings" ]
       ~classes:[ "Root"; "Bindings" ]
   with
  | Some src -> scr.root_bindings <- Ctx.parsed_bindings ctx src
  | None -> ());
  (* Focus policy. *)
  scr.focus_policy <-
    (match Config.query1 ctx.cfg ~screen "focusPolicy" with
    | Some v -> (
        match String.lowercase_ascii (String.trim v) with
        | "pointer" | "follow" | "followmouse" -> Ctx.Focus_pointer
        | "click" | "clicktofocus" -> Ctx.Focus_click
        | _ -> Ctx.Focus_none)
    | None -> Ctx.Focus_none)

let read_session (ctx : Ctx.t) =
  let root = (Ctx.screen ctx 0).root in
  match Server.get_property ctx.server root ~name:Prop.swm_places with
  | Some (Prop.String text) ->
      (* SWM_PLACES is client-writable: salvage what parses, surface the
         rest instead of silently dropping it. *)
      let stats = Session.load ctx.session text in
      if stats.Session.rejected > 0 then begin
        Metrics.add
          (Metrics.counter (Server.metrics ctx.server) "session.load_errors")
          stats.Session.rejected;
        let first = Option.value stats.Session.first_error ~default:"" in
        Ctx.Log.debug (fun m ->
            m "session: rejected %d SWM_PLACES line(s), kept %d (%s)"
              stats.Session.rejected stats.Session.loaded first);
        Tracing.note (Server.tracer ctx.server) "session.load_error"
          ~attrs:
            [
              ("rejected", string_of_int stats.Session.rejected);
              ("loaded", string_of_int stats.Session.loaded);
              ("error", first);
            ]
      end
  | Some _ | None -> ()

(* -------- manage -------- *)

let is_sticky_resource (ctx : Ctx.t) ~screen scope =
  Config.query_client_bool ctx.cfg ~screen scope "sticky" ~default:false

let cascade_slot (ctx : Ctx.t) ~screen =
  let n = (Ctx.screen ctx screen).n_clients in
  let step = 40 in
  Geom.point (16 + (n mod 12 * step)) (16 + (n mod 8 * step))

let initial_position (ctx : Ctx.t) ~screen ~sticky win hint =
  let o = if sticky then Geom.point 0 0 else Vdesk.offset ctx ~screen in
  match (hint : Session.hint option) with
  | Some h -> Geom.point h.geometry.x h.geometry.y
  | None -> (
      match Icccm.read_placement ctx win with
      | Icccm.Place_absolute p ->
          (* USPosition is absolute in the window's own placement space:
             desktop coordinates for a normal window, glass (root)
             coordinates for a sticky one.  Either way the point is used
             verbatim — only viewport-relative (PPosition) and default
             placement add the pan offset. *)
          p
      | Icccm.Place_viewport p -> Geom.point (p.px + o.px) (p.py + o.py)
      | Icccm.Place_default ->
          let slot = cascade_slot ctx ~screen in
          Geom.point (slot.px + o.px) (slot.py + o.py))

let manage_inner (ctx : Ctx.t) win =
  if
    Server.window_exists ctx.server win
    && (not (Server.override_redirect ctx.server win))
    && Ctx.client_of_window ctx win = None
  then begin
    let screen = Server.screen_of_window ctx.server win in
    let instance, class_ = Icccm.read_class ctx win in
    let shaped = Server.is_shaped ctx.server win in
    let hint =
      match Icccm.read_command ctx win with
      | Some command ->
          Session.take_match ctx.session ~command
            ~host:(Icccm.read_client_machine ctx win)
      | None -> None
    in
    let is_panner_window =
      match (Ctx.screen ctx screen).vdesk with
      | Some vdesk -> Xid.equal vdesk.panner_client win
      | None -> false
    in
    let scope0 = { Config.instance; class_; shaped; sticky = false } in
    let sticky =
      match hint with
      | Some h -> h.sticky || is_panner_window
      | None -> is_sticky_resource ctx ~screen scope0 || is_panner_window
    in
    (* A session hint restores the previous client size before decorating. *)
    (match hint with
    | Some h ->
        let geom = Server.geometry ctx.server win in
        Server.move_resize ctx.server ctx.conn win
          { geom with Geom.w = h.geometry.w; h = h.geometry.h }
    | None -> ());
    let client =
      {
        Ctx.cwin = win;
        screen;
        instance;
        class_;
        frame = win;
        deco = None;
        client_panel = None;
        state = Prop.Withdrawn;
        sticky;
        shaped;
        zoom_saved = None;
        icon_obj = None;
        icon_pos = (match hint with Some h -> h.icon_geometry | None -> None);
        holder = None;
        wm_name = Icccm.read_name ctx win;
        mini = Xid.none;
        corners = [];
      }
    in
    Ctx.add_client ctx client;
    let at = initial_position ctx ~screen ~sticky win hint in
    Ctx.Log.debug (fun m ->
        m "manage %s.%s win=%a at=%a%s%s" instance class_ Xid.pp win Geom.pp_point at
          (if sticky then " sticky" else "")
          (if hint <> None then " (session hint)" else ""));
    Decoration.build ctx client ~at;
    let initial_state =
      match hint with
      | Some h -> h.state
      | None -> (Icccm.read_wm_hints ctx win).initial_state
    in
    (match initial_state with
    | Prop.Iconic ->
        Icccm.set_wm_state ctx client Prop.Normal;
        Icons.iconify ctx client
    | Prop.Normal | Prop.Withdrawn -> Icccm.set_wm_state ctx client Prop.Normal)
  end

let unmanage (ctx : Ctx.t) (client : Ctx.client) ~destroyed =
  (* An interactive move/resize of a dying client ends now. *)
  (match ctx.mode with
  | Ctx.Moving { m_client; _ } when m_client == client ->
      Server.ungrab_pointer ctx.server ctx.conn;
      ctx.mode <- Ctx.Idle
  | Ctx.Resizing { r_client; _ } when r_client == client ->
      Server.ungrab_pointer ctx.server ctx.conn;
      ctx.mode <- Ctx.Idle
  | Ctx.Moving _ | Ctx.Resizing _ | Ctx.Idle | Ctx.Prompting _ -> ());
  (* Each teardown step is guarded on its own: the client (or its icon
     windows) may already be gone, and a BadWindow while dismantling one
     piece must not leave the rest registered in the tables. *)
  Xguard.run ctx ~where:"unmanage.icon" (fun () ->
      match client.icon_obj with
      | Some icon ->
          (match client.holder with
          | Some holder ->
              holder.holder_clients <-
                List.filter (fun c -> c != client) holder.holder_clients;
              (match holder.holder_obj with
              | Some hobj ->
                  Wobj.remove_child hobj icon;
                  Wobj.relayout hobj
              | None -> ())
          | None -> ());
          Wobj.unrealize icon;
          client.icon_obj <- None
      | None -> ());
  Ctx.Log.debug (fun m ->
      m "unmanage %s win=%a destroyed=%b" client.instance Xid.pp client.cwin destroyed);
  Xguard.run ctx ~where:"unmanage.teardown" (fun () ->
      Decoration.teardown ctx client ~to_root:(not destroyed));
  Ctx.remove_client ctx client;
  Xid.Tbl.remove ctx.frames client.cwin;
  Ctx.damage_membership ctx client

(* Manage under guard: the client can disappear between the MapRequest and
   any of the requests manage issues (the twm mid-reparent race).  On an
   absorbed error, roll back whatever made it into the tables. *)
let manage (ctx : Ctx.t) win =
  match Xguard.protect ctx ~where:"manage" (fun () -> manage_inner ctx win) with
  | Some () -> ()
  | None -> (
      match Xid.Tbl.find_opt ctx.clients win with
      | Some client ->
          Xguard.run ctx ~where:"manage.rollback" (fun () ->
              unmanage ctx client ~destroyed:true)
      | None -> ())

let managed (ctx : Ctx.t) win = Ctx.client_of_window ctx win <> None
let find_client (ctx : Ctx.t) win = Ctx.client_of_window ctx win

(* -------- input dispatch -------- *)

let object_of_window (ctx : Ctx.t) win =
  let rec try_screens i =
    if i >= Array.length ctx.screens then None
    else
      match Wobj.find_object (Ctx.screen ctx i).tk win with
      | Some obj -> Some obj
      | None -> try_screens (i + 1)
  in
  try_screens 0

let object_in_menu obj menu =
  let menu_obj = Menu.obj menu in
  let rec walk o =
    o == menu_obj || (match Wobj.parent o with Some p -> walk p | None -> false)
  in
  walk obj

let client_for_object (ctx : Ctx.t) obj =
  match Decoration.frame_of_object ctx obj with
  | Some client -> Some client
  | None -> Icons.client_of_icon_object ctx obj

let screen_of_event_window (ctx : Ctx.t) win =
  if Server.window_exists ctx.server win then Server.screen_of_window ctx.server win
  else 0

(* Set input focus when the screen's focus policy matches the trigger. *)
let apply_focus_policy (ctx : Ctx.t) window trigger =
  match Ctx.client_of_window ctx window with
  | Some client ->
      let scr = Ctx.screen ctx client.screen in
      if scr.focus_policy = trigger then
        Server.set_input_focus ctx.server ctx.conn client.cwin
  | None -> ()

let dispatch_object (ctx : Ctx.t) obj event =
  let screen = Wobj.toolkit_screen (Wobj.toolkit obj) in
  let scr = Ctx.screen ctx screen in
  let menu_invocation =
    match scr.active_menu with
    | Some (menu, menu_client) when object_in_menu obj menu -> Some (menu, menu_client)
    | Some _ | None -> None
  in
  let bindings = Ctx.object_bindings ctx obj in
  let funcs = Bindings.lookup bindings event in
  match menu_invocation with
  | Some (menu, menu_client) ->
      Menu.unpost menu;
      scr.active_menu <- None;
      let client =
        match menu_client with Some c -> Some c | None -> client_for_object ctx obj
      in
      Functions.execute ctx (Functions.invocation ~obj ?client ~screen ()) funcs
  | None ->
      if funcs <> [] then begin
        (* A click outside a posted menu dismisses it. *)
        (match scr.active_menu with
        | Some (menu, _) ->
            Menu.unpost menu;
            scr.active_menu <- None
        | None -> ());
        let client = client_for_object ctx obj in
        Functions.execute ctx (Functions.invocation ~obj ?client ~screen ()) funcs
      end

let handle_moving_live (ctx : Ctx.t) (m_client : Ctx.client) grab_offset m_outline
    root_pos commit =
  let screen = m_client.screen in
  let scr = Ctx.screen ctx screen in
  let inside_panner =
    match scr.vdesk with
    | Some vdesk when not (Xid.is_none vdesk.panner_client) ->
        if Server.window_exists ctx.server vdesk.panner_client then begin
          let pg = Server.root_geometry ctx.server vdesk.panner_client in
          if Geom.contains pg root_pos then
            Some
              (Geom.point (root_pos.Geom.px - pg.x) (root_pos.Geom.py - pg.y))
          else None
        end
        else None
    | Some _ | None -> None
  in
  let parent_pos =
    match inside_panner with
    | Some ppos when not m_client.sticky ->
        (* Dropping on the panner repositions on the whole desktop. *)
        Panner.desktop_pos_of_panner_pos ctx ~screen ppos
    | Some _ | None ->
        let o = if m_client.sticky then Geom.point 0 0 else Vdesk.offset ctx ~screen in
        Geom.point
          (root_pos.Geom.px - grab_offset.Geom.px + o.px)
          (root_pos.Geom.py - grab_offset.Geom.py + o.py)
  in
  (if (not (Xid.is_none m_outline)) && not commit then begin
     (* Outline mode: only the outline tracks the pointer. *)
     if Server.window_exists ctx.server m_outline then begin
       let g = Server.geometry ctx.server m_outline in
       Server.move_resize ctx.server ctx.conn m_outline
         { g with Geom.x = parent_pos.Geom.px; y = parent_pos.Geom.py }
     end
   end
   else Decoration.move_frame ctx m_client parent_pos);
  if commit then begin
    if (not (Xid.is_none m_outline)) && Server.window_exists ctx.server m_outline
    then Server.destroy_window ctx.server m_outline;
    Server.ungrab_pointer ctx.server ctx.conn;
    ctx.mode <- Ctx.Idle;
    (* Drag-and-drop destinations: dropping on a root icon with a <Drop>
       binding runs its functions on the dragged client (paper §4.1.3). *)
    let pointer = Server.pointer_pos ctx.server in
    List.iter
      (fun icon ->
        if Wobj.is_realized icon then begin
          let abs = Server.root_geometry ctx.server (Wobj.window icon) in
          if Geom.contains abs pointer then begin
            let funcs = Bindings.drop_functions (Ctx.object_bindings ctx icon) in
            if funcs <> [] then
              Functions.execute ctx
                (Functions.invocation ~obj:icon ~client:m_client ~screen ())
                funcs
          end
        end)
      scr.root_icons
  end

(* The dragged client may die mid-gesture; drop the mode instead of acting
   on a destroyed frame. *)
let handle_moving (ctx : Ctx.t) (m_client : Ctx.client) grab_offset m_outline root_pos
    commit =
  if not (Server.window_exists ctx.server m_client.frame) then begin
    if (not (Xid.is_none m_outline)) && Server.window_exists ctx.server m_outline then
      Server.destroy_window ctx.server m_outline;
    Server.ungrab_pointer ctx.server ctx.conn;
    ctx.mode <- Ctx.Idle
  end
  else handle_moving_live ctx m_client grab_offset m_outline root_pos commit

let handle_resizing (ctx : Ctx.t) (r_client : Ctx.client) (sw0, sh0) r_pointer r_dir
    r_frame0 root_pos commit =
  if not (Server.window_exists ctx.server r_client.frame) then begin
    Server.ungrab_pointer ctx.server ctx.conn;
    ctx.mode <- Ctx.Idle
  end
  else begin
  let dx = root_pos.Geom.px - r_pointer.Geom.px in
  let dy = root_pos.Geom.py - r_pointer.Geom.py in
  let w = max 16 (sw0 + (r_dir.Geom.px * dx)) in
  let h = max 16 (sh0 + (r_dir.Geom.py * dy)) in
  Decoration.client_resized ctx r_client (w, h);
  (* Keep the opposite corner anchored when resizing from a left/top
     corner. *)
  let fg = Server.geometry ctx.server r_client.frame in
  let x = if r_dir.Geom.px < 0 then r_frame0.Geom.x + (r_frame0.Geom.w - fg.w) else fg.x in
  let y = if r_dir.Geom.py < 0 then r_frame0.Geom.y + (r_frame0.Geom.h - fg.h) else fg.y in
  if x <> fg.x || y <> fg.y then
    Server.move_resize ctx.server ctx.conn r_client.frame { fg with Geom.x; y };
  if commit then begin
    Server.ungrab_pointer ctx.server ctx.conn;
    ctx.mode <- Ctx.Idle;
    if Panner.is_panner ctx r_client then Panner.panner_resized ctx r_client (w, h)
  end
  end

let handle_button_press (ctx : Ctx.t) event window button pos root_pos =
  ignore root_pos;
  (* Any press dismisses an f.identify popup (unless it created it this
     instant; creation happens after dispatch). *)
  if
    (not (Xid.is_none ctx.identify_win))
    && Server.window_exists ctx.server ctx.identify_win
    && not (Xid.equal window ctx.identify_win)
  then begin
    Server.destroy_window ctx.server ctx.identify_win;
    ctx.identify_win <- Xid.none
  end;
  match ctx.mode with
  | Ctx.Prompting _ -> (
      match Functions.client_under_pointer ctx with
      | Some client -> Functions.resume_with_target ctx client
      | None -> ctx.mode <- Ctx.Idle)
  | Ctx.Moving { m_client; grab_offset; m_outline } ->
      handle_moving ctx m_client grab_offset m_outline (Server.pointer_pos ctx.server)
        true
  | Ctx.Resizing { r_client; r_start_client; r_pointer; r_dir; r_frame0 } ->
      handle_resizing ctx r_client r_start_client r_pointer r_dir r_frame0
        (Server.pointer_pos ctx.server) true
  | Ctx.Idle -> (
      apply_focus_policy ctx window Ctx.Focus_click;
      let screen = screen_of_event_window ctx window in
      let scr = Ctx.screen ctx screen in
      (* Panner miniatures. *)
      match Panner.client_of_miniature ctx window with
      | Some mini_client when button = 2 ->
          (* Start a move through the panner: the grab offset is the press
             position within the miniature, scaled up, so that crossing out
             of the panner leaves the full-size window under the pointer. *)
          let scale =
            match scr.vdesk with Some v -> v.Ctx.panner_scale | None -> 1
          in
          ctx.mode <-
            Ctx.Moving
              {
                m_client = mini_client;
                grab_offset = Geom.point (pos.Geom.px * scale) (pos.Geom.py * scale);
                m_outline = Xid.none;
              };
          Server.grab_pointer ctx.server ctx.conn mini_client.frame
      | Some _ ->
          (* Button 1 on a miniature pans, like pressing beside it. *)
          let panner_pos =
            match scr.vdesk with
            | Some vdesk ->
                Server.translate_coordinates ctx.server ~src:window
                  ~dst:vdesk.panner_client pos
            | None -> pos
          in
          Panner.pan_to_pointer ctx ~screen ~panner_pos
      | None -> (
          match Scrollbar.classify ctx ~screen window with
          | Some direction when button = 1 ->
              let bar_pos =
                match direction with
                | `Horizontal -> (
                    match scr.hbar with
                    | Some (bar, _) ->
                        Server.translate_coordinates ctx.server ~src:window ~dst:bar pos
                    | None -> pos)
                | `Vertical -> (
                    match scr.vbar with
                    | Some (bar, _) ->
                        Server.translate_coordinates ctx.server ~src:window ~dst:bar pos
                    | None -> pos)
              in
              Scrollbar.handle_press ctx ~screen direction ~bar_pos
          | Some _ | None -> (
          match scr.vdesk with
          | Some vdesk when Xid.equal vdesk.panner_client window && button = 1 ->
              Panner.pan_to_pointer ctx ~screen ~panner_pos:pos
          | _ -> (
              match Xid.Tbl.find_opt ctx.corners window with
              | Some corner_client ->
                  (* Which corner?  Left/top corners anchor the opposite
                     edge while dragging. *)
                  let cg = Server.geometry ctx.server window in
                  let fg = Server.geometry ctx.server corner_client.frame in
                  let dir_x = if cg.x < fg.w / 2 then -1 else 1 in
                  let dir_y = if cg.y < fg.h / 2 then -1 else 1 in
                  let cgeom = Server.geometry ctx.server corner_client.cwin in
                  ctx.mode <-
                    Ctx.Resizing
                      {
                        r_client = corner_client;
                        r_start_client = (cgeom.w, cgeom.h);
                        r_pointer = Server.pointer_pos ctx.server;
                        r_dir = Geom.point dir_x dir_y;
                        r_frame0 = fg;
                      };
                  Server.grab_pointer ctx.server ctx.conn corner_client.frame
              | None -> (
                  match object_of_window ctx window with
                  | Some obj -> dispatch_object ctx obj event
                  | None ->
                      if
                        Xid.equal window scr.root
                        || Vdesk.is_desktop_window ctx ~screen window
                      then begin
                        (match scr.active_menu with
                        | Some (menu, _) ->
                            Menu.unpost menu;
                            scr.active_menu <- None
                        | None -> ());
                        let funcs = Bindings.lookup scr.root_bindings event in
                        Functions.execute ctx
                          (Functions.invocation ~screen ())
                          funcs
                      end)))))

let handle_key_press (ctx : Ctx.t) event window =
  let screen = screen_of_event_window ctx window in
  let scr = Ctx.screen ctx screen in
  match object_of_window ctx window with
  | Some obj -> dispatch_object ctx obj event
  | None ->
      let funcs = Bindings.lookup scr.root_bindings event in
      let client =
        match Ctx.client_of_window ctx window with
        | Some _ as c -> c
        | None -> Functions.client_under_pointer ctx
      in
      Functions.execute ctx (Functions.invocation ?client ~screen ()) funcs

(* -------- event handling -------- *)

let handle_configure_request (ctx : Ctx.t) window (changes : Event.config_changes) =
  match Xid.Tbl.find_opt ctx.clients window with
  | Some client ->
      let cgeom = Server.geometry ctx.server client.cwin in
      let w = Option.value changes.cw ~default:cgeom.w in
      let h = Option.value changes.ch ~default:cgeom.h in
      if w <> cgeom.w || h <> cgeom.h then begin
        Decoration.client_resized ctx client (w, h);
        if Panner.is_panner ctx client then Panner.panner_resized ctx client (w, h)
      end;
      (match (changes.cx, changes.cy) with
      | None, None -> ()
      | cx, cy ->
          (* Requested positions are viewport-relative (PPosition rules). *)
          let o =
            if client.sticky then Geom.point 0 0
            else Vdesk.offset ctx ~screen:client.screen
          in
          let fgeom = Server.geometry ctx.server client.frame in
          let x = match cx with Some x -> x + o.px | None -> fgeom.x in
          let y = match cy with Some y -> y + o.py | None -> fgeom.y in
          Decoration.move_frame ctx client (Geom.point x y));
      Option.iter (Ctx.restack ctx client) changes.cstack
  | None ->
      (* Not managed: apply verbatim (we hold the redirect, so this
         configures directly). *)
      if Server.window_exists ctx.server window then
        Server.configure_window ctx.server ctx.conn window changes

let handle_property (ctx : Ctx.t) window name =
  (* The name arriving in the event was interned when the property was
     written, so a single probe resolves it and the comparisons against
     the hot names are int equality, not per-event string walks. *)
  match Server.interned ctx.server name with
  | None -> ()
  | Some atom ->
      let atoms = ctx.atoms in
      let is_root =
        Array.exists
          (fun (scr : Ctx.screen_state) -> Xid.equal scr.root window)
          ctx.screens
      in
      if is_root && Atom.equal atom atoms.a_swm_command then
        Swmcmd.handle_property_change ctx
          ~screen:(screen_of_event_window ctx window)
      else
        match Xid.Tbl.find_opt ctx.clients window with
        | None -> ()
        | Some client ->
            if Atom.equal atom atoms.a_wm_name then
              Ctx.damage_if_resized ctx client (fun () -> Decoration.update_name ctx client)
            else if Atom.equal atom atoms.a_wm_icon_name then begin
              match client.icon_obj with
              | Some icon -> (
                  match Wobj.find_descendant icon ~name:"iconname" with
                  | Some obj -> Wobj.set_label obj (Icccm.read_icon_name ctx window)
                  | None -> ())
              | None -> ()
            end

(* -------- event dispatch: the handler table --------

   One handler function per event kind, precomputed into an array indexed
   by {!Event.code} (the classic [event_handlers[LASTEvent]] idiom): the
   per-event cost is one array load and a call instead of a wide variant
   match.  Each handler re-matches its own constructor to destructure (a
   cheap single-tag check); a mismatched code falls through to a no-op,
   and the exhaustiveness of the table itself is pinned by a test over
   [1 .. Event.last_event]. *)

let on_map_request ctx = function
  | Event.Map_request { window; _ } -> (
      match Xid.Tbl.find_opt ctx.Ctx.clients window with
      | Some client ->
          (* Mapping an iconified window deiconifies it (ICCCM). *)
          if client.Ctx.state = Prop.Iconic then Icons.deiconify ctx client
          else Server.map_window ctx.server ctx.conn window
      | None -> manage ctx window)
  | _ -> ()

let on_configure_request ctx = function
  | Event.Configure_request { window; changes; _ } ->
      handle_configure_request ctx window changes
  | _ -> ()

let on_destroy_notify ctx = function
  | Event.Destroy_notify { window } -> (
      match Xid.Tbl.find_opt ctx.Ctx.clients window with
      | Some client -> unmanage ctx client ~destroyed:true
      | None -> ())
  | _ -> ()

let on_unmap_notify ctx = function
  | Event.Unmap_notify { window } -> (
      match Xid.Tbl.find_opt ctx.Ctx.clients window with
      | Some client ->
          (* Reparenting briefly unmaps; a real withdrawal leaves the window
             unmapped when we process the event. *)
          if
            Server.window_exists ctx.server window
            && (not (Server.is_mapped ctx.server window))
            && client.Ctx.state <> Prop.Iconic
          then unmanage ctx client ~destroyed:false
      | None -> ())
  | _ -> ()

let on_property_notify ctx = function
  | Event.Property_notify { window; name; _ } -> handle_property ctx window name
  | _ -> ()

let on_button_press ctx event =
  match event with
  | Event.Button_press { window; button; pos; root_pos; _ } ->
      handle_button_press ctx event window button pos root_pos
  | _ -> ()

let on_button_release ctx = function
  | Event.Button_release _ -> (
      match ctx.Ctx.mode with
      | Ctx.Moving { m_client; grab_offset; m_outline } ->
          handle_moving ctx m_client grab_offset m_outline
            (Server.pointer_pos ctx.server) true
      | Ctx.Resizing { r_client; r_start_client; r_pointer; r_dir; r_frame0 } ->
          handle_resizing ctx r_client r_start_client r_pointer r_dir r_frame0
            (Server.pointer_pos ctx.server) true
      | Ctx.Idle | Ctx.Prompting _ -> ())
  | _ -> ()

let on_motion_notify ctx = function
  | Event.Motion_notify { root_pos; _ } -> (
      match ctx.Ctx.mode with
      | Ctx.Moving { m_client; grab_offset; m_outline } ->
          handle_moving ctx m_client grab_offset m_outline root_pos false
      | Ctx.Resizing { r_client; r_start_client; r_pointer; r_dir; r_frame0 } ->
          handle_resizing ctx r_client r_start_client r_pointer r_dir r_frame0 root_pos
            false
      | Ctx.Idle | Ctx.Prompting _ -> ())
  | _ -> ()

let on_key_press ctx event =
  match event with
  | Event.Key_press { window; _ } -> handle_key_press ctx event window
  | _ -> ()

let on_enter_notify ctx event =
  match event with
  | Event.Enter_notify { window } -> (
      apply_focus_policy ctx window Ctx.Focus_pointer;
      match object_of_window ctx window with
      | Some obj -> dispatch_object ctx obj event
      | None -> ())
  | _ -> ()

let on_leave_notify ctx event =
  match event with
  | Event.Leave_notify { window } -> (
      match object_of_window ctx window with
      | Some obj -> dispatch_object ctx obj event
      | None -> ())
  | _ -> ()

let on_ignored (_ : Ctx.t) (_ : Event.t) = ()

(* Every valid code gets an explicit binding, ignored kinds included, so
   the table is total over [1 .. Event.last_event]; the exhaustiveness
   test pins [dispatch_table_codes] against exactly that range.  Slot 0
   (reserved) and anything out of range fall to the no-op default. *)
let handler_bindings : (int * (Ctx.t -> Event.t -> unit)) list =
  [
    (1, on_map_request);
    (2, on_configure_request);
    (3, on_ignored) (* Map_notify *);
    (4, on_unmap_notify);
    (5, on_destroy_notify);
    (6, on_ignored) (* Reparent_notify *);
    (7, on_ignored) (* Configure_notify *);
    (8, on_property_notify);
    (9, on_button_press);
    (10, on_button_release);
    (11, on_key_press);
    (12, on_motion_notify);
    (13, on_enter_notify);
    (14, on_leave_notify);
    (15, on_ignored) (* Expose *);
    (16, on_ignored) (* Client_message *);
    (17, on_ignored) (* Focus_in *);
    (18, on_ignored) (* Focus_out *);
  ]

let handler_table : (Ctx.t -> Event.t -> unit) array =
  let table = Array.make (Event.last_event + 1) on_ignored in
  List.iter (fun (code, handler) -> table.(code) <- handler) handler_bindings;
  table

let dispatch_table_codes () = List.map fst handler_bindings

let handle_event (ctx : Ctx.t) (event : Event.t) =
  handler_table.(Event.code event) ctx event

(* After an absorbed X error the tables may hold clients whose windows are
   already gone (the racing client destroyed them mid-operation).  Unmanage
   each of those — guarded, since teardown touches the same dead windows. *)
let sweep_dead (ctx : Ctx.t) =
  List.iter
    (fun (client : Ctx.client) ->
      if not (Server.window_exists ctx.server client.cwin) then
        Xguard.run ctx ~where:"sweep_dead" (fun () ->
            unmanage ctx client ~destroyed:true))
    (Ctx.all_clients ctx)

(* The periodic crash-safe snapshot: count dispatched events and rewrite the
   autosave file every [autosave_interval] of them (§ robustness). *)
let autosave_tick (ctx : Ctx.t) =
  match ctx.autosave_path with
  | None -> ()
  | Some _ ->
      ctx.autosave_pending <- ctx.autosave_pending + 1;
      if ctx.autosave_pending >= ctx.autosave_interval then
        Xguard.run ctx ~where:"autosave" (fun () ->
            Functions.autosave ctx ~file_arg:None)

(* Every [stats_interval] dispatched events, snapshot the key counters into
   the time-series sampler so [f.query(stats)] can report rates (events/sec,
   faults/sec) instead of only all-time totals. *)
let stats_tick (ctx : Ctx.t) =
  ctx.stats_pending <- ctx.stats_pending + 1;
  if ctx.stats_pending >= ctx.stats_interval then begin
    ctx.stats_pending <- 0;
    Metrics.sample ctx.sampler
  end

(* Per-kind dispatch constants, precomputed once so the hot loop never
   allocates attr lists or concatenates labels. *)
let span_attrs =
  Array.init (Event.last_event + 1) (fun code ->
      [ ("event", Event.name_of_code code) ])

let dispatch_where =
  Array.init (Event.last_event + 1) (fun code ->
      "dispatch:" ^ Event.name_of_code code)

(* Every [governor_interval] events through the loop, one governor tick:
   re-evaluate the degradation tier and run a server health (quarantine)
   pass.  Under journal suspension — the tier machine and any eviction it
   triggers are WM-derived state a replay recomputes from the same
   inputs. *)
let governor_tick (ctx : Ctx.t) =
  ctx.governor_pending <- ctx.governor_pending + 1;
  if ctx.governor_pending >= ctx.governor_interval then begin
    ctx.governor_pending <- 0;
    Server.with_journal_suspended ctx.server (fun () -> Governor.tick ctx)
  end

(* Every event goes through [handle_event_full] so dispatch latency lands
   in the [wm.dispatch_wall_ns] histogram alongside the server's queue
   counters, and — when tracing is on — as a [wm.dispatch] span that
   parents everything the handler does (function runs, redraws, pans).

   A dispatch starts at [t0], where the previous one ended (or at the
   clock reading of the batch read, for a batch's first), and reads the
   clock once, at its end, which it returns.  Its time thus includes the
   loop's bookkeeping since the previous dispatch: the ticks and the
   records below.  The end time is what the ledger's fate slot, the
   watchdog, [wm.dispatch_wall_ns] and [event.e2e_ns] all use.

   The handler runs under the {!Xguard} discipline: a BadWindow/BadAccess
   raised by a racing client is absorbed at this boundary (counted in
   [wm.xerrors]), after which dead clients are swept instead of crashing
   the WM.

   Around the handler sit the health layer's probes: the flight recorder
   logs the event, and a dispatch that overruns [watchdog_threshold_ns]
   counts a [watchdog.stalls] — the "the WM froze for a moment"
   signal.  Any other exception dumps a crash report before propagating:
   the flight recorder's whole purpose is to still have the story when
   that happens. *)
let dispatch (ctx : Ctx.t) event (stamp : Server.stamp) code ~t0 =
  let req0 = Server.request_count ctx.server in
  ctx.fn_trail <- [];
  (match handle_event ctx event with
  | () -> ()
  | exception ((Server.Bad_window _ | Server.Bad_access _) as e) ->
      Xguard.absorb ctx ~where:dispatch_where.(code) e;
      sweep_dead ctx
  | exception e ->
      Recorder.crash (Server.recorder ctx.server)
        ~reason:
          (Printf.sprintf "unhandled exception dispatching %s: %s"
             (Event.name_of_code code) (Printexc.to_string e))
        ~metrics:(Server.metrics ctx.server) ~tracer:(Server.tracer ctx.server);
      raise e);
  let t1 = Metrics.now_mono_ns () in
  let elapsed = t1 - t0 in
  Metrics.observe ctx.h_dispatch_wall_ns elapsed;
  (* Ingress -> dispatch-complete wall latency, per event class.  A zero
     ingress stamp means the ledger was disarmed when this event entered
     the queue: no residency baseline, so no sample. *)
  if stamp.Server.ingress_ns > 0 then
    Metrics.observe ctx.h_e2e.(code) (t1 - stamp.Server.ingress_ns);
  Server.ledger_dispatch ctx.conn stamp ~t0 ~t1
    ~requests:(Server.request_count ctx.server - req0)
    ~fns:ctx.fn_trail;
  if elapsed >= ctx.watchdog_threshold_ns then begin
    Metrics.incr ctx.c_watchdog_stalls;
    let kind = Event.name_of_code code in
    let attrs = [ ("event", kind); ("dur_ns", string_of_int elapsed) ] in
    Tracing.note (Server.tracer ctx.server) "watchdog.stall" ~attrs;
    let recorder = Server.recorder ctx.server in
    if Recorder.enabled recorder then
      Recorder.record recorder ~kind:"stall" ~attrs kind
  end;
  Metrics.incr ctx.c_events_dispatched;
  governor_tick ctx;
  stats_tick ctx;
  autosave_tick ctx;
  t1

(* The profiler's GC probe sits inside the wm.dispatch span: the span's
   duration bounds the probe's wall time from above, which is what makes
   the flamegraph's root frames cover the measured dispatch wall time. *)
let profiled_dispatch (ctx : Ctx.t) event stamp code ~t0 =
  let profiler = Server.profiler ctx.server in
  if Profile.armed profiler then
    Profile.event_section profiler (fun () -> dispatch ctx event stamp code ~t0)
  else dispatch ctx event stamp code ~t0

(* The span and the probe are closures, built only while the tracer or
   the profiler is on: an event pays for no observer that is off. *)
let handle_event_full (ctx : Ctx.t) event (stamp : Server.stamp) ~t0 =
  let code = Event.code event in
  let recorder = Server.recorder ctx.server in
  if Recorder.enabled recorder then
    (* The seq exemplar links this recorder entry (and every request the
       dispatch issues) back to the triggering event's ingress record. *)
    Recorder.record recorder ~kind:"event"
      ~attrs:[ ("seq", string_of_int stamp.Server.seq) ]
      (Event.name_of_code code);
  Metrics.incr ctx.dispatch_counters.(code);
  let tracer = Server.tracer ctx.server in
  if Tracing.enabled tracer then
    Tracing.span tracer "wm.dispatch"
      ~attrs:(("seq", string_of_int stamp.Server.seq) :: span_attrs.(code))
      (fun () -> profiled_dispatch ctx event stamp code ~t0)
  else profiled_dispatch ctx event stamp code ~t0

(* Dispatch one event read from the WM's queue, from [t0]; returns where
   the next dispatch starts. *)
let dispatch_read (ctx : Ctx.t) event (stamp : Server.stamp) ~t0 =
  if ctx.tier = Ctx.Tier_essential && Event.droppable_code (Event.code event)
  then begin
    (* Essential tier: latest-wins events are not worth their dispatch cost
       while overloaded.  The governor still ticks on skipped events, so
       recovery happens even under a pure motion storm. *)
    Metrics.incr ctx.c_gov_skipped;
    Server.ledger_skip ctx.conn event stamp;
    governor_tick ctx;
    stats_tick ctx;
    t0
  end
  else handle_event_full ctx event stamp ~t0

(* The flight recorder's compact state snapshot: the window table, the
   per-screen viewport, and the iconic/sticky id sets — enough to place
   the recorded activity tail against what the WM believed its world
   looked like, small enough to retake every few hundred records.
   Clients are sorted by window id so snapshots diff cleanly. *)
let state_snapshot_json (ctx : Ctx.t) =
  let buf = Buffer.create 512 in
  let clients =
    List.sort
      (fun (a : Ctx.client) b -> Xid.compare a.cwin b.cwin)
      (Ctx.all_clients ctx)
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"managed\":%d,\"clients\":[" (List.length clients));
  List.iteri
    (fun i (c : Ctx.client) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"win\":%d,\"instance\":%s,\"class\":%s,\"state\":%s,\"sticky\":%b}"
           (Xid.to_int c.cwin)
           (Metrics.json_string c.instance)
           (Metrics.json_string c.class_)
           (Metrics.json_string (Prop.wm_state_to_string c.state))
           c.sticky))
    clients;
  let ids pred =
    String.concat ","
      (List.filter_map
         (fun (c : Ctx.client) ->
           if pred c then Some (string_of_int (Xid.to_int c.cwin)) else None)
         clients)
  in
  Buffer.add_string buf
    (Printf.sprintf "],\"iconic\":[%s],\"sticky\":[%s],\"screens\":["
       (ids (fun c -> c.state = Prop.Iconic))
       (ids (fun c -> c.sticky)));
  Array.iteri
    (fun i (_ : Ctx.screen_state) ->
      if i > 0 then Buffer.add_char buf ',';
      let vp = Vdesk.viewport ctx ~screen:i in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"screen\":%d,\"viewport\":{\"x\":%d,\"y\":%d,\"w\":%d,\"h\":%d}}"
           i vp.Geom.x vp.Geom.y vp.Geom.w vp.Geom.h))
    ctx.screens;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* The counters the time-series sampler tracks: enough to derive the
   health rates (events/sec, coalesce ratio, faults/sec) without walking
   the whole registry per sample. *)
let sampled_series =
  [
    "events.enqueued";
    "events.coalesced";
    "events.delivered";
    "wm.events_dispatched";
    "wm.xerrors";
    "watchdog.stalls";
    "faults.injected";
    "swmcmd.errors";
    "vdesk.pans";
  ]

(* Batch size per read: big enough that a pan storm drains in a few reads,
   small enough that shutdown is noticed between batches. *)
let batch_size = 64

(* Each batch is read into the context's two arrays and dispatched from
   there, all of it popped before the first handler runs.  The first
   dispatch starts at the read's clock reading (the ledger's, or one of
   its own while the ledger is disarmed), and each one after where the
   previous one ended. *)
let rec drain (ctx : Ctx.t) count =
  if ctx.running || Server.pending ctx.conn > 0 then begin
    let n = Server.read_batch ctx.conn ctx.batch_events ctx.batch_stamps in
    if n = 0 then count
    else begin
      let t = Server.read_ns ctx.conn in
      let t = ref (if t = 0 then Metrics.now_mono_ns () else t) in
      for i = 0 to n - 1 do
        t := dispatch_read ctx ctx.batch_events.(i) ctx.batch_stamps.(i) ~t0:!t
      done;
      drain ctx (count + n)
    end
  end
  else count

let step (ctx : Ctx.t) =
  (* Journal markers: [step] says "the WM drained its queue here" (replay
     re-enacts the drain at the same point in the op stream), [snap] pins
     the convergence snapshot to this safe point — end of step, no handler
     mid-flight — which is what {!Replay.run} compares against. *)
  let recorder = Server.recorder ctx.server in
  Recorder.record_op recorder "step";
  (* WM activity during the drain is derived state, not session input: a
     replayed WM recomputes it, so it stays out of the journal (the WM's
     own conn is exempt; this covers conn-less calls like outline warps
     too). *)
  let count = Server.with_journal_suspended ctx.server (fun () -> drain ctx 0) in
  Panner.apply_damage ctx;
  if Recorder.enabled recorder then
    Recorder.journal_snapshot recorder (state_snapshot_json ctx);
  count

(* -------- start / shutdown -------- *)

let start ?(resources = []) ?(host = "localhost") ?(display = ":0") server =
  let conn = Server.connect server ~name:"swm" in
  (* The WM's requests never enter the replay journal: a replay starts a
     fresh WM which re-derives all of them.  Startup is suspended wholesale
     so WM-owned pseudo-clients (root panels, the panner) stay out too. *)
  Server.set_journal_exempt conn true;
  Server.with_journal_suspended server @@ fun () ->
  let db = Xrdb.create () in
  let resources = if resources = [] then [ Templates.default ] else resources in
  (* xrdb-style preprocessing: COLOR/WIDTH/HEIGHT defined from the display,
     #include resolving the shipped template names. *)
  let sw, sh = Server.screen_size server ~screen:0 in
  let defines =
    [ ("WIDTH", string_of_int sw); ("HEIGHT", string_of_int sh) ]
    @ if Server.screen_monochrome server ~screen:0 then [] else [ ("COLOR", "1") ]
  in
  let loader name = List.assoc_opt name Templates.names in
  List.iter
    (fun text ->
      match Xrdb.load_string_cpp ~defines ~loader db text with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Wm.start: bad resources: " ^ msg))
    resources;
  let cfg = Config.create db server in
  let nscreens = Server.screen_count server in
  let screens =
    Array.init nscreens (fun index ->
        let root = Server.root server ~screen:index in
        Server.select_input server conn root root_masks;
        let tk =
          Wobj.create_toolkit ~server ~conn ~screen:index
            ~query:(fun ~names ~classes ->
              Config.object_query cfg ~screen:index ~names ~classes)
        in
        {
          Ctx.index;
          root;
          tk;
          vdesk = None;
          holders = [];
          root_panels = [];
          root_icons = [];
          menus = [];
          active_menu = None;
          root_bindings = [];
          hbar = None;
          vbar = None;
          focus_policy = Ctx.Focus_none;
          damage = Ctx.no_damage ();
          n_clients = 0;
        })
  in
  let metrics = Server.metrics server in
  let events_by_kind = Metrics.counter_family metrics ~key:"event" "wm.dispatch.events" in
  (* Resolve every per-event metric handle and atom once: dispatch then
     touches only preresolved counters/histograms and compares ints. *)
  let dispatch_counters =
    Array.init (Event.last_event + 1) (fun code ->
        Metrics.labeled_counter events_by_kind (Event.name_of_code code))
  in
  let atoms =
    let i name = Server.intern_name server name in
    {
      Ctx.a_wm_name = i Prop.wm_name;
      a_wm_icon_name = i Prop.wm_icon_name;
      a_wm_class = i Prop.wm_class;
      a_wm_command = i Prop.wm_command;
      a_wm_client_machine = i Prop.wm_client_machine;
      a_wm_hints = i Prop.wm_hints_name;
      a_wm_normal_hints = i Prop.wm_normal_hints;
      a_wm_state = i Prop.wm_state_name;
      a_wm_transient_for = i Prop.wm_transient_for;
      a_wm_protocols = i Prop.wm_protocols;
      a_swm_root = i Prop.swm_root;
      a_swm_command = i Prop.swm_command;
      a_swm_places = i Prop.swm_places;
      a_swm_result = i Prop.swm_result;
    }
  in
  let ctx =
    {
      Ctx.server;
      conn;
      cfg;
      screens;
      clients = Xid.Tbl.create 64;
      frames = Xid.Tbl.create 64;
      corners = Xid.Tbl.create 64;
      panner_minis = Xid.Tbl.create 64;
      session = Session.create_table ();
      binding_cache = Hashtbl.create 32;
      mode = Ctx.Idle;
      running = true;
      restart_requested = false;
      executed = [];
      last_places = None;
      identify_win = Xid.none;
      confirm = (fun _ -> true);
      autosave_path = None;
      autosave_interval = 64;
      autosave_pending = 0;
      sampler = Metrics.sampler (Server.metrics server) sampled_series;
      stats_interval = 32;
      stats_pending = 0;
      watchdog_threshold_ns = 50_000_000;
      tier = Ctx.Tier_full;
      governor_interval = 32;
      governor_pending = 0;
      gov_calm = 0;
      gov_last_stalls = 0;
      c_tier_transitions = Metrics.counter metrics "governor.transitions";
      c_gov_skipped = Metrics.counter metrics "governor.events_skipped";
      events_by_kind;
      dispatch_counters;
      h_dispatch_wall_ns = Metrics.histogram metrics "wm.dispatch_wall_ns";
      h_e2e =
        (let fam = Metrics.histogram_family metrics ~key:"event" "event.e2e_ns" in
         Array.init (Event.last_event + 1) (fun code ->
             Metrics.labeled_histogram fam (Event.name_of_code code)));
      fn_trail = [];
      batch_events = Array.make batch_size (Event.Focus_in { window = Xid.none });
      batch_stamps =
        Array.init batch_size (fun _ -> { Server.seq = 0; ingress_ns = 0; slot = -1 });
      c_events_dispatched = Metrics.counter metrics "wm.events_dispatched";
      c_watchdog_stalls = Metrics.counter metrics "watchdog.stalls";
      h_panner_refresh_ns = Metrics.histogram metrics "panner.refresh_ns";
      c_panner_frames = Metrics.counter metrics "panner.frames_examined";
      atoms;
      host;
      display;
    }
  in
  (match Config.query1 cfg ~screen:0 "autosaveFile" with
  | Some "" | None -> ()
  | Some path -> ctx.autosave_path <- Some path);
  (match Config.query1 cfg ~screen:0 "autosaveInterval" with
  | Some n -> (
      match int_of_string_opt (String.trim n) with
      | Some n when n > 0 -> ctx.autosave_interval <- n
      | Some _ | None -> ())
  | None -> ());
  (* The flight recorder's state snapshots come from the WM, not the
     server: install the provider now that a ctx exists, then honour the
     arming resources.  [flightRecorder: on] starts recording;
     [flightRecorderDump: PATH] is where crash reports land. *)
  let recorder = Server.recorder server in
  Recorder.set_snapshot_source recorder (fun () -> state_snapshot_json ctx);
  (* Session setup for the replay journal: what a fresh WM needs to be
     started the same way (dump_json emits it as the report's [meta]). *)
  Recorder.set_meta recorder
    (let buf = Buffer.create 256 in
     Buffer.add_string buf "{\"resources\":[";
     List.iteri
       (fun i text ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_string buf (Json.escape text))
       resources;
     Buffer.add_string buf "],\"screens\":[";
     for s = 0 to nscreens - 1 do
       if s > 0 then Buffer.add_char buf ',';
       let w, h = Server.screen_size server ~screen:s in
       Buffer.add_string buf (Printf.sprintf "[%d,%d]" w h)
     done;
     Buffer.add_string buf "]}";
     Buffer.contents buf);
  (match Config.query1 cfg ~screen:0 "flightRecorder" with
  | Some ("on" | "true" | "1") -> Recorder.start recorder
  | Some _ | None -> ());
  (match Config.query1 cfg ~screen:0 "flightRecorderDump" with
  | Some "" | None -> ()
  | Some path -> Recorder.arm_dump recorder ~path);
  read_session ctx;
  for screen = 0 to nscreens - 1 do
    setup_screen ctx ~screen;
    Scrollbar.create ctx ~screen;
    Icons.create_holders ctx ~screen;
    Icons.create_root_icons ctx ~screen;
    (* Root panels and the panner are ordinary clients: manage them. *)
    List.iter (fun win -> manage ctx win) (Root_panel.create ctx ~screen);
    (match Panner.create ctx ~screen with
    | Some panner_win ->
        Server.map_window ctx.server ctx.conn panner_win;
        manage ctx panner_win
    | None -> ());
    (* Adopt pre-existing client windows.  Per-child guard: a client can
       die between [children_of] and any of these queries, and one corpse
       must not abort adoption of the rest. *)
    let scr = Ctx.screen ctx screen in
    List.iter
      (fun child ->
        Xguard.run ctx ~where:"adopt" (fun () ->
            if
              Server.is_mapped server child
              && (not (Server.override_redirect server child))
              && (not (managed ctx child))
              && Server.conn_name (Server.owner_of server child) <> "swm"
            then manage ctx child))
      (Server.children_of server scr.root)
  done;
  ignore (step ctx);
  ctx

let shutdown (ctx : Ctx.t) =
  ctx.running <- false;
  Server.disconnect ctx.server ctx.conn

let render_screen (ctx : Ctx.t) ~screen =
  Render.to_string (Render.render ctx.server ~screen ())

(* -------- replay -------- *)

(* The {!Replay} harness: a fresh WM on the replay server, configured from
   the report's recorded resources, stepped wherever the journal says the
   recorded WM drained its queue. *)
let replay_harness (report : Replay.report) server =
  let wm = start ~resources:report.Replay.resources server in
  {
    Replay.h_step = (fun () -> ignore (step wm));
    Replay.h_snapshot = (fun () -> state_snapshot_json wm);
  }

let replay report = Replay.run report ~make:(replay_harness report)

(* Give f.query(replay,FILE) its engine (Functions sits below this module
   and cannot start a WM itself). *)
let () = Functions.set_replay_runner replay
