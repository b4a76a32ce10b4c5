module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event

type config = {
  border_width : int;
  title_height : int;
  no_title : string list;
  auto_raise : bool;
  icon_x : int;
  use_icon_manager : bool;
  bindings : (int * string * string) list;
}

let default_config =
  {
    border_width = 2;
    title_height = 20;
    no_title = [];
    auto_raise = false;
    icon_x = 8;
    use_icon_manager = false;
    bindings =
      [ (1, "title", "f.raise"); (2, "title", "f.move"); (3, "title", "f.iconify");
        (1, "icon", "f.deiconify") ];
  }

(* -------- .twmrc parsing: one directive per line -------- *)

let words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_twmrc text =
  let config = ref default_config in
  let err = ref None in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if !err = None then begin
        let line = String.trim line in
        if line = "" || line.[0] = '#' || line.[0] = '!' then ()
        else
          match words line with
          | [ "BorderWidth"; n ] -> (
              match int_of_string_opt n with
              | Some n -> config := { !config with border_width = n }
              | None -> err := Some ("bad BorderWidth: " ^ n))
          | [ "TitleHeight"; n ] -> (
              match int_of_string_opt n with
              | Some n -> config := { !config with title_height = n }
              | None -> err := Some ("bad TitleHeight: " ^ n))
          | [ "AutoRaise"; v ] ->
              config := { !config with auto_raise = String.lowercase_ascii v = "true" }
          | [ "UseIconManager"; v ] ->
              config :=
                { !config with use_icon_manager = String.lowercase_ascii v = "true" }
          | [ "IconX"; n ] -> (
              match int_of_string_opt n with
              | Some n -> config := { !config with icon_x = n }
              | None -> err := Some ("bad IconX: " ^ n))
          | "NoTitle" :: rest ->
              let classes =
                List.filter (fun w -> w <> "{" && w <> "}") rest
                |> List.map (fun w ->
                       String.concat ""
                         (String.split_on_char '"' w))
              in
              config := { !config with no_title = (!config).no_title @ classes }
          | [ button; "="; ":"; context; ":"; fname ]
            when String.length button = 7
                 && String.sub button 0 6 = "Button" -> (
              match int_of_string_opt (String.sub button 6 1) with
              | Some b when b >= 1 && b <= 5 ->
                  config :=
                    { !config with bindings = (!config).bindings @ [ (b, context, fname) ] }
              | Some _ | None -> err := Some ("bad button: " ^ button))
          | _ -> err := Some ("unknown directive: " ^ line)
      end)
    lines;
  match !err with Some msg -> Error msg | None -> Ok !config

(* -------- the WM -------- *)

type managed = {
  cwin : Xid.t;
  mutable frame : Xid.t;
  mutable title : Xid.t;  (** Xid.none when NoTitle *)
  mutable icon : Xid.t;  (** icon window when iconified *)
  mutable iconic : bool;
  class_ : string;
}

type t = {
  server : Server.t;
  conn : Server.conn;
  root : Xid.t;
  config : config;
  table : managed Xid.Tbl.t;
  mutable move_grab : (managed * Geom.point) option;
  mutable next_icon_y : int;
  mutable icon_manager : Xid.t; (* Xid.none when disabled *)
  icon_rows : managed Xid.Tbl.t; (* row window -> iconified client *)
}

let read_name_for wm win =
  match Server.get_property wm.server win ~name:Prop.wm_name with
  | Some (Prop.String s) -> s
  | Some _ | None -> "untitled"

(* twm's Icon Manager: a fixed-appearance list of iconified clients; each
   row is a small window whose click deiconifies (contrast with swm's icon
   holders, which hold the real icons — paper §4.1.5). *)
let refresh_icon_manager wm =
  if not (Xid.is_none wm.icon_manager) then begin
    List.iter
      (fun row ->
        Xid.Tbl.remove wm.icon_rows row;
        if Server.window_exists wm.server row then Server.destroy_window wm.server row)
      (Xid.Tbl.fold (fun row _ acc -> row :: acc) wm.icon_rows []);
    let iconified =
      Xid.Tbl.fold
        (fun k m acc -> if Xid.equal k m.cwin && m.iconic then m :: acc else acc)
        wm.table []
    in
    let row_h = 16 in
    List.iteri
      (fun i m ->
        let row =
          Server.create_window wm.server wm.conn ~parent:wm.icon_manager
            ~geom:(Geom.rect 1 (1 + (i * row_h)) 118 (row_h - 2))
            ~background:'i'
            ~label:(read_name_for wm m.cwin)
            ()
        in
        Server.select_input wm.server wm.conn row [ Event.Button_press_mask ];
        Server.map_window wm.server wm.conn row;
        Xid.Tbl.replace wm.icon_rows row m)
      iconified;
    let g = Server.geometry wm.server wm.icon_manager in
    Server.move_resize wm.server wm.conn wm.icon_manager
      { g with Geom.h = max row_h (2 + (List.length iconified * row_h)) };
    if iconified = [] then Server.unmap_window wm.server wm.conn wm.icon_manager
    else Server.map_window wm.server wm.conn wm.icon_manager
  end

let managed_count wm =
  Xid.Tbl.fold (fun k m acc -> if Xid.equal k m.cwin then acc + 1 else acc) wm.table 0

let frame_of wm cwin =
  match Xid.Tbl.find_opt wm.table cwin with Some m -> Some m.frame | None -> None

let icon_manager_window wm =
  if Xid.is_none wm.icon_manager then None else Some wm.icon_manager

let read_class wm win =
  match Server.get_property wm.server win ~name:Prop.wm_class with
  | Some (Prop.Wm_class { class_; _ }) -> class_
  | Some _ | None -> "Unknown"

let read_name wm win =
  match Server.get_property wm.server win ~name:Prop.wm_name with
  | Some (Prop.String s) -> s
  | Some _ | None -> "untitled"

let manage wm cwin =
  if (not (Xid.Tbl.mem wm.table cwin)) && not (Server.override_redirect wm.server cwin)
  then begin
    let cfg = wm.config in
    let class_ = read_class wm cwin in
    let titled = not (List.mem class_ cfg.no_title) in
    let cgeom = Server.geometry wm.server cwin in
    let th = if titled then cfg.title_height else 0 in
    let frame =
      Server.create_window wm.server wm.conn ~parent:wm.root
        ~geom:(Geom.rect cgeom.x cgeom.y cgeom.w (cgeom.h + th))
        ~border:cfg.border_width ~background:' ' ()
    in
    let title =
      if titled then begin
        let t =
          Server.create_window wm.server wm.conn ~parent:frame
            ~geom:(Geom.rect 0 0 cgeom.w th) ~background:'=' ~label:(read_name wm cwin)
            ()
        in
        Server.select_input wm.server wm.conn t
          [ Event.Button_press_mask; Event.Button_release_mask ];
        Server.map_window wm.server wm.conn t;
        t
      end
      else Xid.none
    in
    Server.reparent_window wm.server wm.conn cwin ~new_parent:frame
      ~pos:(Geom.point 0 th);
    Server.add_to_save_set wm.server wm.conn cwin;
    Server.select_input wm.server wm.conn cwin
      [ Event.Structure_notify; Event.Property_change ];
    Server.map_window wm.server wm.conn cwin;
    Server.map_window wm.server wm.conn frame;
    Server.change_property wm.server wm.conn cwin ~name:Prop.wm_state_name
      (Prop.Wm_state_value { state = Prop.Normal; icon = Xid.none });
    let m = { cwin; frame; title; icon = Xid.none; iconic = false; class_ } in
    Xid.Tbl.replace wm.table cwin m;
    Xid.Tbl.replace wm.table frame m;
    if titled then Xid.Tbl.replace wm.table title m
  end

let unmanage wm (m : managed) ~destroyed =
  if not destroyed then begin
    let abs = Server.root_geometry wm.server m.cwin in
    if Server.window_exists wm.server m.cwin then begin
      Server.reparent_window wm.server wm.conn m.cwin ~new_parent:wm.root
        ~pos:(Geom.point abs.x abs.y);
      Server.remove_from_save_set wm.server wm.conn m.cwin
    end
  end;
  if Server.window_exists wm.server m.frame then
    Server.destroy_window wm.server m.frame;
  if (not (Xid.is_none m.icon)) && Server.window_exists wm.server m.icon then
    Server.destroy_window wm.server m.icon;
  Xid.Tbl.remove wm.table m.cwin;
  Xid.Tbl.remove wm.table m.frame;
  if not (Xid.is_none m.title) then Xid.Tbl.remove wm.table m.title

let iconify_managed wm (m : managed) =
  if not m.iconic then begin
    Server.unmap_window wm.server wm.conn m.frame;
    if wm.config.use_icon_manager then begin
      m.iconic <- true;
      Server.change_property wm.server wm.conn m.cwin ~name:Prop.wm_state_name
        (Prop.Wm_state_value { state = Prop.Iconic; icon = Xid.none });
      refresh_icon_manager wm
    end
    else begin
    let icon =
      Server.create_window wm.server wm.conn ~parent:wm.root
        ~geom:(Geom.rect wm.config.icon_x wm.next_icon_y 64 24)
        ~border:1 ~background:'i' ~label:(read_name wm m.cwin) ()
    in
    wm.next_icon_y <- wm.next_icon_y + 32;
    Server.select_input wm.server wm.conn icon [ Event.Button_press_mask ];
    Server.map_window wm.server wm.conn icon;
    m.icon <- icon;
    m.iconic <- true;
    Xid.Tbl.replace wm.table icon m;
    Server.change_property wm.server wm.conn m.cwin ~name:Prop.wm_state_name
      (Prop.Wm_state_value { state = Prop.Iconic; icon })
    end
  end

let deiconify_managed wm (m : managed) =
  if m.iconic then begin
    if (not (Xid.is_none m.icon)) && Server.window_exists wm.server m.icon then begin
      Xid.Tbl.remove wm.table m.icon;
      Server.destroy_window wm.server m.icon
    end;
    m.icon <- Xid.none;
    m.iconic <- false;
    Server.map_window wm.server wm.conn m.frame;
    Server.raise_window wm.server wm.conn m.frame;
    Server.change_property wm.server wm.conn m.cwin ~name:Prop.wm_state_name
      (Prop.Wm_state_value { state = Prop.Normal; icon = Xid.none });
    if wm.config.use_icon_manager then refresh_icon_manager wm
  end

let iconify wm cwin =
  match Xid.Tbl.find_opt wm.table cwin with
  | Some m -> iconify_managed wm m
  | None -> ()

let deiconify wm cwin =
  match Xid.Tbl.find_opt wm.table cwin with
  | Some m -> deiconify_managed wm m
  | None -> ()

let context_of wm (m : managed) win =
  if Xid.equal win m.title then "title"
  else if Xid.equal win m.icon then "icon"
  else if Xid.equal win wm.root then "root"
  else "frame"

let run_function wm (m : managed) fname =
  match fname with
  | "f.raise" -> Server.raise_window wm.server wm.conn m.frame
  | "f.lower" -> Server.lower_window wm.server wm.conn m.frame
  | "f.iconify" -> iconify_managed wm m
  | "f.deiconify" -> deiconify_managed wm m
  | "f.move" -> (
      match wm.move_grab with
      | Some _ -> ()
      | None ->
          let pointer = Server.pointer_pos wm.server in
          let fgeom = Server.geometry wm.server m.frame in
          wm.move_grab <-
            Some (m, Geom.point (pointer.px - fgeom.x) (pointer.py - fgeom.y));
          Server.grab_pointer wm.server wm.conn m.frame)
  | _ -> ()

let handle_event wm event =
  match event with
  | Event.Map_request { window; _ } -> (
      match Xid.Tbl.find_opt wm.table window with
      | Some m -> deiconify_managed wm m
      | None -> manage wm window)
  | Event.Configure_request { window; changes; _ } -> (
      match Xid.Tbl.find_opt wm.table window with
      | Some m ->
          let cgeom = Server.geometry wm.server m.cwin in
          let w = Option.value changes.cw ~default:cgeom.w in
          let h = Option.value changes.ch ~default:cgeom.h in
          let th =
            if Xid.is_none m.title then 0
            else (Server.geometry wm.server m.title).h
          in
          Server.move_resize wm.server wm.conn m.cwin (Geom.rect 0 th w h);
          let fgeom = Server.geometry wm.server m.frame in
          let x = Option.value changes.cx ~default:fgeom.x in
          let y = Option.value changes.cy ~default:fgeom.y in
          Server.move_resize wm.server wm.conn m.frame (Geom.rect x y w (h + th));
          if not (Xid.is_none m.title) then begin
            let tgeom = Server.geometry wm.server m.title in
            Server.move_resize wm.server wm.conn m.title { tgeom with Geom.w }
          end
      | None -> Server.configure_window wm.server wm.conn window changes)
  | Event.Destroy_notify { window } -> (
      match Xid.Tbl.find_opt wm.table window with
      | Some m when Xid.equal window m.cwin -> unmanage wm m ~destroyed:true
      | Some _ | None -> ())
  | Event.Unmap_notify { window } -> (
      match Xid.Tbl.find_opt wm.table window with
      | Some m
        when Xid.equal window m.cwin
             && Server.window_exists wm.server window
             && (not (Server.is_mapped wm.server window))
             && not m.iconic ->
          unmanage wm m ~destroyed:false
      | Some _ | None -> ())
  | Event.Property_notify { window; name; _ }
    when String.equal name Prop.wm_name -> (
      match Xid.Tbl.find_opt wm.table window with
      | Some m when not (Xid.is_none m.title) ->
          Server.set_label wm.server m.title (Some (read_name wm m.cwin))
      | Some _ | None -> ())
  | Event.Button_press { window; button; _ } -> (
      match wm.move_grab with
      | Some (m, offset) ->
          let pointer = Server.pointer_pos wm.server in
          let fgeom = Server.geometry wm.server m.frame in
          Server.move_resize wm.server wm.conn m.frame
            { fgeom with Geom.x = pointer.px - offset.px; y = pointer.py - offset.py };
          Server.ungrab_pointer wm.server wm.conn;
          wm.move_grab <- None
      | None -> (
          match Xid.Tbl.find_opt wm.icon_rows window with
          | Some m ->
              deiconify_managed wm m
          | None -> (
          match Xid.Tbl.find_opt wm.table window with
          | Some m ->
              let context = context_of wm m window in
              List.iter
                (fun (b, bctx, fname) ->
                  if b = button && String.equal bctx context then
                    run_function wm m fname)
                wm.config.bindings;
              if wm.config.auto_raise then
                Server.raise_window wm.server wm.conn m.frame
          | None -> ())))
  | Event.Motion_notify { root_pos; _ } -> (
      match wm.move_grab with
      | Some (m, offset) ->
          let fgeom = Server.geometry wm.server m.frame in
          Server.move_resize wm.server wm.conn m.frame
            { fgeom with Geom.x = root_pos.px - offset.px; y = root_pos.py - offset.py }
      | None -> ())
  | Event.Button_release _ -> (
      match wm.move_grab with
      | Some _ ->
          Server.ungrab_pointer wm.server wm.conn;
          wm.move_grab <- None
      | None -> ())
  | Event.Map_notify _ | Event.Reparent_notify _ | Event.Configure_notify _
  | Event.Property_notify _ | Event.Expose _ | Event.Client_message _
  | Event.Key_press _ | Event.Enter_notify _ | Event.Leave_notify _
  | Event.Focus_in _ | Event.Focus_out _ ->
      ()

let step wm =
  let count = ref 0 in
  let rec drain () =
    match Server.next_event wm.conn with
    | Some event ->
        incr count;
        handle_event wm event;
        drain ()
    | None -> ()
  in
  drain ();
  !count

let start ?(config = default_config) server =
  let conn = Server.connect server ~name:"twm" in
  let root = Server.root server ~screen:0 in
  Server.select_input server conn root
    [
      Event.Substructure_redirect;
      Event.Substructure_notify;
      Event.Button_press_mask;
      Event.Button_release_mask;
      Event.Pointer_motion_mask;
    ];
  let wm =
    {
      server;
      conn;
      root;
      config;
      table = Xid.Tbl.create 64;
      move_grab = None;
      next_icon_y = 8;
      icon_manager = Xid.none;
      icon_rows = Xid.Tbl.create 16;
    }
  in
  if config.use_icon_manager then
    wm.icon_manager <-
      Server.create_window server conn ~parent:root ~geom:(Geom.rect 8 8 120 16)
        ~border:1 ~override_redirect:true ();
  List.iter
    (fun child ->
      if Server.is_mapped server child && not (Server.override_redirect server child)
      then manage wm child)
    (Server.children_of server root);
  wm

let shutdown wm = Server.disconnect wm.server wm.conn
