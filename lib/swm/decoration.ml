module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event
module Wobj = Swm_oi.Wobj
module Panel_spec = Swm_oi.Panel_spec
module Tracing = Swm_xlib.Tracing

let decoration_name (ctx : Ctx.t) (client : Ctx.client) =
  match Config.query_client ctx.cfg ~screen:client.screen (Ctx.client_scope client)
          "decoration"
  with
  | Some "none" | None -> None
  | Some name -> Some (String.trim name)

let corner_size = 6

(* OpenLook-style resize corners: four small windows pinned to the frame's
   corners, outside the OI layout (they overlay it).  Their win-gravity
   keeps them there when the frame is resized, with no request.  They are
   the frame's only unmapped children, so one MapSubwindows maps them,
   except when the client itself waits unmapped in the frame (a decoration
   without a [client] panel): then each corner is mapped on its own. *)
let attach_corners (ctx : Ctx.t) (client : Ctx.client) =
  let geom = Server.geometry ctx.server client.frame in
  let right = geom.w - corner_size and bottom = geom.h - corner_size in
  client.corners <-
    List.map
      (fun (x, y, gravity) ->
        let corner =
          Server.create_window ctx.server ctx.conn ~parent:client.frame
            ~geom:(Geom.rect x y corner_size corner_size)
            ~event_mask:[ Event.Button_press_mask; Event.Button_release_mask ]
            ~gravity ~background:'+' ()
        in
        Xid.Tbl.replace ctx.corners corner client;
        corner)
      [
        (0, 0, Server.North_west);
        (right, 0, Server.North_east);
        (0, bottom, Server.South_west);
        (right, bottom, Server.South_east);
      ];
  match client.client_panel with
  | Some _ -> Server.map_subwindows ctx.server ctx.conn client.frame
  | None -> List.iter (Server.map_window ctx.server ctx.conn) client.corners

(* The corners go with the frame's DestroyWindow. *)
let detach_corners (ctx : Ctx.t) (client : Ctx.client) =
  List.iter (Xid.Tbl.remove ctx.corners) client.corners;
  client.corners <- []

(* Merge with whatever is already selected: the panner's client window, for
   one, carries button masks that must survive being managed. *)
let select_client_events (ctx : Ctx.t) win =
  let existing = Server.selected_masks ctx.server ctx.conn win in
  let wanted = [ Event.Structure_notify; Event.Property_change ] in
  let missing = List.filter (fun m -> not (List.mem m existing)) wanted in
  Server.select_input ctx.server ctx.conn win (missing @ existing)

(* Mirror the client's shape onto the client panel and frame so shaped
   decorations follow shaped clients (paper §5). *)
let propagate_shape (ctx : Ctx.t) (client : Ctx.client) =
  match (client.client_panel, Server.shape_get ctx.server client.cwin) with
  | Some panel, Some region when Wobj.is_realized panel ->
      Server.shape_set ctx.server ctx.conn (Wobj.window panel) region;
      if
        (match client.deco with
        | Some deco -> Wobj.attr_bool deco "shape" ~default:false
        | None -> false)
        && not (Xid.equal client.frame client.cwin)
      then begin
        let panel_geom = Server.geometry ctx.server (Wobj.window panel) in
        let border = Server.border_width ctx.server (Wobj.window panel) in
        Server.shape_set ctx.server ctx.conn client.frame
          (Swm_xlib.Region.translate region ~dx:(panel_geom.x + border)
             ~dy:(panel_geom.y + border))
      end
  | _ -> ()

let build (ctx : Ctx.t) (client : Ctx.client) ~at =
  (let tracer = Server.tracer ctx.server in
   if Tracing.enabled tracer then
     Tracing.span tracer "decoration.build"
       ~attrs:[ ("client", string_of_int (Xid.to_int client.cwin)) ]
   else fun f -> f ())
  @@ fun () ->
  let parent = Vdesk.effective_parent ctx ~screen:client.screen ~sticky:client.sticky in
  let cgeom = Server.geometry ctx.server client.cwin in
  (match decoration_name ctx client with
  | None ->
      (* Undecorated: the client goes straight into the effective parent. *)
      Server.reparent_window ctx.server ctx.conn client.cwin ~new_parent:parent ~pos:at;
      client.frame <- client.cwin;
      Xid.Tbl.replace ctx.frames client.cwin client
  | Some deco_name -> (
      let scr = Ctx.screen ctx client.screen in
      let lookup name = Config.panel_definition ctx.cfg ~screen:client.screen name in
      match
        Panel_spec.build scr.tk ~lookup ~kind:Wobj.Panel ~name:deco_name
      with
      | Error _ ->
          Server.reparent_window ctx.server ctx.conn client.cwin ~new_parent:parent
            ~pos:at;
          client.frame <- client.cwin;
          Xid.Tbl.replace ctx.frames client.cwin client
      | Ok deco ->
          let client_panel = Wobj.find_descendant deco ~name:"client" in
          (match client_panel with
          | Some panel ->
              Wobj.set_external_size panel (Some (cgeom.w, cgeom.h));
              (* Keep redirecting the client's own configure/map requests
                 once its parent is the client panel, not the root. *)
              Wobj.add_event_masks panel [ Event.Substructure_redirect ]
          | None -> ());
          (* Titled before it is realized, the frame is created at its
             final size. *)
          (match Wobj.find_descendant deco ~name:"name" with
          | Some name_obj -> Wobj.set_label name_obj client.wm_name
          | None -> ());
          Wobj.realize deco ~parent_window:parent ~at;
          let frame = Wobj.window deco in
          client.deco <- Some deco;
          client.client_panel <- client_panel;
          client.frame <- frame;
          Xid.Tbl.replace ctx.frames frame client;
          (match client_panel with
          | Some panel ->
              Server.reparent_window ctx.server ctx.conn client.cwin
                ~new_parent:(Wobj.window panel) ~pos:(Geom.point 0 0);
              Server.add_to_save_set ctx.server ctx.conn client.cwin
          | None ->
              (* A decoration without a client panel is a configuration
                 error; fall back to parenting into the frame itself. *)
              Server.reparent_window ctx.server ctx.conn client.cwin ~new_parent:frame
                ~pos:(Geom.point 0 0);
              Server.add_to_save_set ctx.server ctx.conn client.cwin);
          if Wobj.attr_bool deco "resizeCorners" ~default:false then
            attach_corners ctx client;
          propagate_shape ctx client;
          Server.map_window ctx.server ctx.conn frame));
  select_client_events ctx client.cwin;
  Server.map_window ctx.server ctx.conn client.cwin;
  Icccm.set_swm_root ctx client.cwin ~root:(Vdesk.effective_root ctx client);
  Icccm.send_synthetic_configure ctx client

let teardown (ctx : Ctx.t) (client : Ctx.client) ~to_root =
  detach_corners ctx client;
  Xid.Tbl.remove ctx.frames client.frame;
  if to_root && Server.window_exists ctx.server client.cwin then begin
    let abs = Server.root_geometry ctx.server client.cwin in
    let scr = Ctx.screen ctx client.screen in
    Server.reparent_window ctx.server ctx.conn client.cwin ~new_parent:scr.root
      ~pos:(Geom.point abs.x abs.y);
    Server.remove_from_save_set ctx.server ctx.conn client.cwin
  end;
  (match client.deco with
  | Some deco -> Wobj.unrealize deco
  | None -> ());
  client.deco <- None;
  client.client_panel <- None;
  client.frame <- client.cwin

let redecorate (ctx : Ctx.t) (client : Ctx.client) =
  (let tracer = Server.tracer ctx.server in
   if Tracing.enabled tracer then
     Tracing.span tracer "decoration.redraw"
       ~attrs:[ ("client", string_of_int (Xid.to_int client.cwin)) ]
   else fun f -> f ())
  @@ fun () ->
  let parent_geom = Server.geometry ctx.server client.frame in
  let pos = Geom.point parent_geom.x parent_geom.y in
  (* Park the client on the real root while rebuilding. *)
  let scr = Ctx.screen ctx client.screen in
  let abs = Server.root_geometry ctx.server client.cwin in
  (match client.deco with
  | Some _ ->
      Server.reparent_window ctx.server ctx.conn client.cwin ~new_parent:scr.root
        ~pos:(Geom.point abs.x abs.y)
  | None -> ());
  teardown ctx client ~to_root:false;
  build ctx client ~at:pos;
  (* The rebuilt frame is created on top of its siblings. *)
  Ctx.damage_restack ctx client Event.Above;
  Ctx.damage_geometry ctx client

(* The resize/move/retitle paths race with client destroys: a BadWindow
   from a dying client is absorbed here rather than unwinding the event
   loop; {!Wm} sweeps the corpse afterwards. *)
let client_resized (ctx : Ctx.t) (client : Ctx.client) (w, h) =
  Xguard.run ctx ~where:"decoration.resize" @@ fun () ->
  (let tracer = Server.tracer ctx.server in
   if Tracing.enabled tracer then
     Tracing.span tracer "decoration.resize"
       ~attrs:[ ("client", string_of_int (Xid.to_int client.cwin)) ]
   else fun f -> f ())
  @@ fun () ->
  Ctx.damage_geometry ctx client;
  let w, h = Icccm.constrain_size (Icccm.read_size_hints ctx client.cwin) (w, h) in
  match (client.deco, client.client_panel) with
  | Some deco, Some panel ->
      Wobj.set_external_size panel (Some (w, h));
      Wobj.relayout deco;
      Server.move_resize ctx.server ctx.conn client.cwin { Geom.x = 0; y = 0; w; h };
      propagate_shape ctx client;
      Icccm.send_synthetic_configure ctx client
  | _ ->
      let geom = Server.geometry ctx.server client.cwin in
      Server.move_resize ctx.server ctx.conn client.cwin { geom with Geom.w = w; h };
      Icccm.send_synthetic_configure ctx client

let move_frame (ctx : Ctx.t) (client : Ctx.client) pos =
  Xguard.run ctx ~where:"decoration.move" @@ fun () ->
  Ctx.damage_geometry ctx client;
  let geom = Server.geometry ctx.server client.frame in
  Server.move_resize ctx.server ctx.conn client.frame
    { geom with Geom.x = pos.Geom.px; y = pos.Geom.py };
  Icccm.send_synthetic_configure ctx client

let update_name (ctx : Ctx.t) (client : Ctx.client) =
  Xguard.run ctx ~where:"decoration.name" @@ fun () ->
  client.wm_name <- Icccm.read_name ctx client.cwin;
  match client.deco with
  | None -> ()
  | Some deco -> (
      match Wobj.find_descendant deco ~name:"name" with
      | Some name_obj -> Wobj.set_label name_obj client.wm_name
      | None -> ())

let frame_of_object (ctx : Ctx.t) obj =
  let rec top o = match Wobj.parent o with Some p -> top p | None -> o in
  let root_obj = top obj in
  if Wobj.is_realized root_obj then Xid.Tbl.find_opt ctx.frames (Wobj.window root_obj)
  else None
