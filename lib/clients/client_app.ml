module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event

type spec = {
  instance : string;
  class_ : string;
  command : string;
  host : string;
  geom : Geom.rect;
  us_position : bool;
  p_position : bool;
  initial_state : Prop.wm_state;
  icon_position : Geom.point option;
  background : char;
  graceful_delete : bool;
}

type t = {
  server : Server.t;
  conn : Server.conn;
  screen : int;
  win : Xid.t;
  sp : spec;
  mutable believed : Geom.point option;
  mutable popups : Xid.t list;
}

let spec ?(instance = "app") ?(class_ = "App") ?command ?(host = "localhost")
    ?(us_position = false) ?(p_position = false) ?(initial_state = Prop.Normal)
    ?icon_position ?(background = 'x') ?(graceful_delete = false) geom =
  let command =
    match command with
    | Some c -> c
    | None -> Printf.sprintf "%s -geometry %dx%d" instance geom.Geom.w geom.Geom.h
  in
  {
    instance;
    class_;
    command;
    host;
    geom;
    us_position;
    p_position;
    initial_state;
    icon_position;
    background;
    graceful_delete;
  }

let launch server ?(screen = 0) sp =
  let conn = Server.connect server ~name:sp.instance in
  let root = Server.root server ~screen in
  let win =
    Server.create_window server conn ~parent:root ~geom:sp.geom
      ~background:sp.background ~label:sp.instance ()
  in
  Server.change_property server conn win ~name:Prop.wm_class
    (Prop.Wm_class { instance = sp.instance; class_ = sp.class_ });
  Server.change_property server conn win ~name:Prop.wm_name (Prop.String sp.instance);
  Server.change_property server conn win ~name:Prop.wm_command (Prop.String sp.command);
  Server.change_property server conn win ~name:Prop.wm_client_machine
    (Prop.String sp.host);
  Server.change_property server conn win ~name:Prop.wm_normal_hints
    (Prop.Size_hints
       {
         Prop.default_size_hints with
         us_position = sp.us_position;
         p_position = sp.p_position;
       });
  Server.change_property server conn win ~name:Prop.wm_hints_name
    (Prop.Wm_hints
       {
         Prop.default_wm_hints with
         initial_state = sp.initial_state;
         icon_position = sp.icon_position;
       });
  if sp.graceful_delete then
    Server.change_property server conn win ~name:Prop.wm_protocols
      (Prop.Atom_list [ Prop.wm_delete_window ]);
  Server.select_input server conn win [ Event.Structure_notify ];
  Server.map_window server conn win;
  { server; conn; screen; win; sp; believed = None; popups = [] }

let window app = app.win
let conn app = app.conn
let app_spec app = app.sp

let process_events app =
  let events = Server.flush_batch app.conn in
  List.iter
    (fun event ->
      match event with
      | Event.Client_message { window; name; data }
        when Xid.equal window app.win
             && String.equal name Prop.wm_protocols
             && String.equal data Prop.wm_delete_window
             && app.sp.graceful_delete ->
          (* A well-behaved client closes itself when asked. *)
          if Server.window_exists app.server app.win then
            Server.destroy_window app.server app.win
      | Event.Configure_notify { window; geom; synthetic; _ }
        when Xid.equal window app.win ->
          if synthetic then app.believed <- Some (Geom.point geom.x geom.y)
          else begin
            (* A real ConfigureNotify is parent-relative; a naive client
               takes it at face value, which is precisely the virtual
               desktop pitfall. *)
            app.believed <- Some (Geom.point geom.x geom.y)
          end
      | _ -> ())
    events;
  List.length events

let believed_position app = app.believed

let set_name app name =
  Server.change_property app.server app.conn app.win ~name:Prop.wm_name
    (Prop.String name)

let set_icon_name app name =
  Server.change_property app.server app.conn app.win ~name:Prop.wm_icon_name
    (Prop.String name)

let resize_self app (w, h) =
  Server.configure_window app.server app.conn app.win
    { Event.no_changes with cw = Some w; ch = Some h }

let move_self app pos =
  Server.configure_window app.server app.conn app.win
    { Event.no_changes with cx = Some pos.Geom.px; cy = Some pos.Geom.py }

let withdraw app = Server.unmap_window app.server app.conn app.win

let destroy app =
  List.iter
    (fun popup ->
      if Server.window_exists app.server popup then
        Server.destroy_window app.server popup)
    app.popups;
  if Server.window_exists app.server app.win then
    Server.destroy_window app.server app.win

let popup_dialog app ~use_swm_root =
  let reference_root =
    if use_swm_root then
      match Server.get_property app.server app.win ~name:Prop.swm_root with
      | Some (Prop.Window r) when Server.window_exists app.server r -> r
      | Some _ | None -> Server.root app.server ~screen:app.screen
    else Server.root app.server ~screen:app.screen
  in
  (* The app centres the dialog on where it believes its window is.  A
     correct toolkit asks the server for its position relative to the
     effective root; a naive one uses its remembered root coordinates. *)
  let base =
    if use_swm_root then
      Server.translate_coordinates app.server ~src:app.win ~dst:reference_root
        (Geom.point 0 0)
    else Option.value app.believed ~default:(Geom.point 0 0)
  in
  let dialog_geom =
    Geom.rect
      (base.px + (app.sp.geom.w / 4))
      (base.py + (app.sp.geom.h / 4))
      (app.sp.geom.w / 2) (app.sp.geom.h / 2)
  in
  (* Clamp like toolkits do: keep the dialog on the (believed) screen. *)
  let sw, sh = Server.screen_size app.server ~screen:app.screen in
  let clamped =
    if use_swm_root then dialog_geom
    else
      Geom.clamp_into dialog_geom ~within:(Geom.rect 0 0 sw sh)
  in
  let dialog =
    Server.create_window app.server app.conn ~parent:reference_root ~geom:clamped
      ~override_redirect:true ~background:'d' ~label:"dialog" ()
  in
  Server.map_window app.server app.conn dialog;
  app.popups <- dialog :: app.popups;
  (dialog, Geom.point clamped.x clamped.y)
