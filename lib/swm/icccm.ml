module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event
module Xid = Swm_xlib.Xid

type placement =
  | Place_absolute of Geom.point
  | Place_viewport of Geom.point
  | Place_default

let read_placement (ctx : Ctx.t) win =
  let geom = Server.geometry ctx.server win in
  match Server.get_property_atom ctx.server win ctx.atoms.a_wm_normal_hints with
  | Some (Prop.Size_hints h) when h.us_position -> Place_absolute (Geom.point geom.x geom.y)
  | Some (Prop.Size_hints h) when h.p_position -> Place_viewport (Geom.point geom.x geom.y)
  | Some _ | None -> Place_default

let read_class (ctx : Ctx.t) win =
  match Server.get_property_atom ctx.server win ctx.atoms.a_wm_class with
  | Some (Prop.Wm_class { instance; class_ }) -> (instance, class_)
  | Some _ | None -> ("unknown", "Unknown")

let read_string_atom ctx win atom ~default =
  match Server.get_property_atom ctx.Ctx.server win atom with
  | Some (Prop.String s) -> s
  | Some _ | None -> default

let read_name ctx win =
  read_string_atom ctx win ctx.Ctx.atoms.a_wm_name ~default:"untitled"

let read_icon_name ctx win =
  read_string_atom ctx win ctx.Ctx.atoms.a_wm_icon_name
    ~default:(read_name ctx win)

let read_command (ctx : Ctx.t) win =
  match Server.get_property_atom ctx.server win ctx.atoms.a_wm_command with
  | Some (Prop.String s) -> Some s
  | Some (Prop.String_list argv) -> Some (String.concat " " argv)
  | Some _ | None -> None

let read_client_machine (ctx : Ctx.t) win =
  match Server.get_property_atom ctx.server win ctx.atoms.a_wm_client_machine with
  | Some (Prop.String s) -> Some s
  | Some _ | None -> None

let read_size_hints (ctx : Ctx.t) win =
  match Server.get_property_atom ctx.server win ctx.atoms.a_wm_normal_hints with
  | Some (Prop.Size_hints h) -> h
  | Some _ | None -> Prop.default_size_hints

let constrain_size (hints : Prop.size_hints) (w, h) =
  let clamp v lo hi = max lo (min v hi) in
  let min_w, min_h = Option.value hints.min_size ~default:(1, 1) in
  let max_w, max_h = Option.value hints.max_size ~default:(max_int, max_int) in
  let w = clamp w min_w max_w and h = clamp h min_h max_h in
  match hints.resize_inc with
  | Some (iw, ih) when iw > 0 && ih > 0 ->
      (* Snap down to the increment grid based at the minimum size. *)
      let snap v base inc = base + ((v - base) / inc * inc) in
      (max min_w (snap w min_w iw), max min_h (snap h min_h ih))
  | Some _ | None -> (w, h)

let read_wm_hints (ctx : Ctx.t) win =
  match Server.get_property_atom ctx.server win ctx.atoms.a_wm_hints with
  | Some (Prop.Wm_hints h) -> h
  | Some _ | None -> Prop.default_wm_hints

let set_wm_state (ctx : Ctx.t) (client : Ctx.client) state =
  client.state <- state;
  Ctx.damage_membership ctx client;
  Server.change_property ctx.server ctx.conn client.cwin ~name:Prop.wm_state_name
    (Prop.Wm_state_value { state; icon = Xid.none })

let set_swm_root (ctx : Ctx.t) win ~root =
  let current = Server.get_property_atom ctx.server win ctx.atoms.a_swm_root in
  match current with
  | Some (Prop.Window r) when Xid.equal r root -> ()
  | Some _ | None ->
      Server.change_property ctx.server ctx.conn win ~name:Prop.swm_root
        (Prop.Window root)

let send_synthetic_configure (ctx : Ctx.t) (client : Ctx.client) =
  let effective_root =
    match Server.get_property_atom ctx.server client.cwin ctx.atoms.a_swm_root with
    | Some (Prop.Window r) when Server.window_exists ctx.server r -> r
    | Some _ | None -> (Ctx.screen ctx client.screen).root
  in
  let pos =
    Server.translate_coordinates ctx.server ~src:client.cwin ~dst:effective_root
      (Geom.point 0 0)
  in
  let geom = Server.geometry ctx.server client.cwin in
  Server.send_event ctx.server ctx.conn ~dest:client.cwin
    (Event.Configure_notify
       {
         window = client.cwin;
         geom = { geom with Geom.x = pos.px; y = pos.py };
         border = Server.border_width ctx.server client.cwin;
         synthetic = true;
       })
