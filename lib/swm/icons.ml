module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wobj = Swm_oi.Wobj
module Panel_spec = Swm_oi.Panel_spec

let default_icon_image = "xlogo32"

(* Cascade slots for icons without a requested position. *)
let next_cascade_slot (ctx : Ctx.t) ~screen =
  let taken =
    List.filter_map
      (fun (c : Ctx.client) ->
        if c.screen = screen && c.state = Prop.Iconic then c.icon_pos else None)
      (Ctx.all_clients ctx)
  in
  let slot = 72 in
  let sw, _ = Server.screen_size ctx.server ~screen in
  let cols = max 1 (sw / slot) in
  let rec find i =
    let candidate = Geom.point (i mod cols * slot + 8) (i / cols * slot + 8) in
    if List.exists (fun p -> p = candidate) taken then find (i + 1) else candidate
  in
  find 0

let icon_position (ctx : Ctx.t) (client : Ctx.client) =
  match client.icon_pos with
  | Some pos -> pos
  | None -> (
      match (Icccm.read_wm_hints ctx client.cwin).icon_position with
      | Some pos -> pos
      | None -> next_cascade_slot ctx ~screen:client.screen)

let icon_panel_name (ctx : Ctx.t) (client : Ctx.client) =
  match
    Config.query_client ctx.cfg ~screen:client.screen (Ctx.client_scope client)
      "iconPanel"
  with
  | Some name -> String.trim name
  | None -> "Xicon"

let holder_for (ctx : Ctx.t) (client : Ctx.client) =
  let scr = Ctx.screen ctx client.screen in
  List.find_opt
    (fun (h : Ctx.holder) ->
      h.holder_classes = [] || List.mem client.class_ h.holder_classes)
    scr.holders

let build_icon (ctx : Ctx.t) (client : Ctx.client) =
  let scr = Ctx.screen ctx client.screen in
  let lookup name = Config.panel_definition ctx.cfg ~screen:client.screen name in
  match
    Panel_spec.build scr.tk ~lookup ~kind:Wobj.Panel
      ~name:(icon_panel_name ctx client)
  with
  | Error _ -> None
  | Ok icon ->
      (match Wobj.find_descendant icon ~name:"iconname" with
      | Some obj -> Wobj.set_label obj (Icccm.read_icon_name ctx client.cwin)
      | None -> ());
      (match Wobj.find_descendant icon ~name:"iconimage" with
      | Some obj ->
          (* The client's icon pixmap, else the xlogo32 default; stock
             bitmaps render as real glyphs, unknown names as [name]. *)
          let hints = Icccm.read_wm_hints ctx client.cwin in
          let pixmap = Option.value hints.icon_pixmap ~default:default_icon_image in
          Wobj.set_attr obj "image" pixmap
      | None -> ());
      Some icon

(* The client's own icon window, reparented into the iconimage button if the
   client supplied one (paper §4.1.2). *)
let adopt_icon_window (ctx : Ctx.t) (client : Ctx.client) icon =
  match (Icccm.read_wm_hints ctx client.cwin).icon_window with
  | Some iwin when Server.window_exists ctx.server iwin -> (
      match Wobj.find_descendant icon ~name:"iconimage" with
      | Some obj when Wobj.is_realized obj ->
          Wobj.set_label obj "";
          Server.reparent_window ctx.server ctx.conn iwin
            ~new_parent:(Wobj.window obj) ~pos:(Geom.point 0 0);
          Server.map_window ctx.server ctx.conn iwin
      | Some _ | None -> ())
  | Some _ | None -> ()

let holder_relayout (holder : Ctx.holder) =
  match holder.holder_obj with
  | None -> ()
  | Some obj when not (Wobj.is_realized obj) -> ()
  | Some obj ->
      Wobj.relayout obj;
      (match holder.holder_fixed_size with
      | Some (w, h) ->
          (* A fixed-size holder is a scrolling window: clamp the window
             back to its size and shift the content by the scroll offset. *)
          let tk = Wobj.toolkit obj in
          let server = Wobj.toolkit_server tk and conn = Wobj.toolkit_conn tk in
          let win = Wobj.window obj in
          let geom = Server.geometry server win in
          if geom.w <> w || geom.h <> h then
            Server.move_resize server conn win { geom with Geom.w = w; h };
          (* Shift each icon by the scroll offset; [Wobj.geometry] still
             holds the unscrolled layout position. *)
          List.iter
            (fun icon_obj ->
              if Wobj.is_realized icon_obj then begin
                let laid = Wobj.geometry icon_obj in
                Server.move_resize server conn (Wobj.window icon_obj)
                  { laid with Geom.y = laid.y - holder.holder_scroll }
              end)
            (Wobj.children obj)
      | None -> ());
      if holder.hide_when_empty then
        if holder.holder_clients = [] then Wobj.unmap obj else Wobj.map obj

let scroll_holder (ctx : Ctx.t) (holder : Ctx.holder) delta =
  ignore ctx;
  (match holder.holder_fixed_size with
  | Some _ ->
      let content_height =
        match holder.holder_obj with
        | Some obj ->
            List.fold_left
              (fun acc child ->
                if Wobj.is_realized child then
                  let g = Wobj.geometry child in
                  max acc (g.Geom.y + g.Geom.h)
                else acc)
              0 (Wobj.children obj)
        | None -> 0
      in
      let visible = match holder.holder_fixed_size with Some (_, h) -> h | None -> 0 in
      holder.holder_scroll <-
        max 0 (min (holder.holder_scroll + delta) (max 0 (content_height - visible)))
  | None -> ());
  holder_relayout holder

let find_holder (ctx : Ctx.t) ~screen name =
  List.find_opt
    (fun (h : Ctx.holder) -> String.equal h.Ctx.holder_name name)
    (Ctx.screen ctx screen).holders

let place_icon (ctx : Ctx.t) (client : Ctx.client) icon =
  match holder_for ctx client with
  | Some holder -> (
      client.holder <- Some holder;
      holder.holder_clients <- holder.holder_clients @ [ client ];
      match holder.holder_obj with
      | Some hobj when Wobj.is_realized hobj ->
          let row = List.length holder.holder_clients - 1 in
          Wobj.add_child hobj icon
            ~position:(Geom.parse_exn (Printf.sprintf "+0+%d" row));
          Wobj.realize icon ~parent_window:(Wobj.window hobj) ~at:(Geom.point 0 0);
          Wobj.map icon;
          holder_relayout holder
      | Some _ | None -> ())
  | None ->
      let pos = icon_position ctx client in
      client.icon_pos <- Some pos;
      let parent = Vdesk.effective_parent ctx ~screen:client.screen ~sticky:false in
      Wobj.realize icon ~parent_window:parent
        ~at:(Geom.point pos.Geom.px pos.Geom.py);
      Wobj.map icon

(* Iconify/deiconify touch the client window, its frame and any client-set
   icon window — all of which a racing client can destroy mid-operation.
   Absorb BadWindow/BadAccess at this boundary (twm's "died mid-reparent"
   race); {!Wm.sweep_dead} reclaims the entry afterwards. *)
let iconify (ctx : Ctx.t) (client : Ctx.client) =
  Xguard.run ctx ~where:"icons.iconify" @@ fun () ->
  if client.state <> Prop.Iconic then begin
    Server.unmap_window ctx.server ctx.conn client.frame;
    (match build_icon ctx client with
    | None -> ()
    | Some icon ->
        client.icon_obj <- Some icon;
        place_icon ctx client icon;
        adopt_icon_window ctx client icon);
    Icccm.set_wm_state ctx client Prop.Iconic
  end

let deiconify (ctx : Ctx.t) (client : Ctx.client) =
  Xguard.run ctx ~where:"icons.deiconify" @@ fun () ->
  if client.state = Prop.Iconic then begin
    (match client.icon_obj with
    | Some icon ->
        (* Give the client its icon window back before tearing down. *)
        (match (Icccm.read_wm_hints ctx client.cwin).icon_window with
        | Some iwin when Server.window_exists ctx.server iwin ->
            let scr = Ctx.screen ctx client.screen in
            Server.unmap_window ctx.server ctx.conn iwin;
            Server.reparent_window ctx.server ctx.conn iwin ~new_parent:scr.root
              ~pos:(Geom.point 0 0)
        | Some _ | None -> ());
        if Wobj.is_realized icon && Server.window_exists ctx.server (Wobj.window icon)
        then begin
          (* The icon may have been moved interactively: ask the server. *)
          let geom = Server.geometry ctx.server (Wobj.window icon) in
          if client.holder = None then
            client.icon_pos <- Some (Geom.point geom.Geom.x geom.Geom.y)
        end;
        (match client.holder with
        | Some holder ->
            holder.holder_clients <-
              List.filter (fun c -> c != client) holder.holder_clients;
            (match holder.holder_obj with
            | Some hobj -> Wobj.remove_child hobj icon
            | None -> ());
            Wobj.unrealize icon;
            holder_relayout holder;
            client.holder <- None
        | None -> Wobj.unrealize icon);
        client.icon_obj <- None
    | None -> ());
    Server.map_window ctx.server ctx.conn client.frame;
    Server.raise_window ctx.server ctx.conn client.frame;
    Icccm.set_wm_state ctx client Prop.Normal
  end

let client_of_icon_object (ctx : Ctx.t) obj =
  let rec top o = match Wobj.parent o with Some p -> top p | None -> o in
  let root_obj = top obj in
  List.find_opt
    (fun (c : Ctx.client) ->
      match c.icon_obj with
      | Some icon -> icon == root_obj || icon == obj
      | None -> false)
    (Ctx.all_clients ctx)

(* -------- holders -------- *)

let split_words s =
  String.split_on_char ' ' s |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let create_holders (ctx : Ctx.t) ~screen =
  match Config.query1 ctx.cfg ~screen "iconHolders" with
  | None -> ()
  | Some names ->
      let scr = Ctx.screen ctx screen in
      List.iter
        (fun name ->
          let holder_attr attr =
            Config.query ctx.cfg ~screen
              ~names:[ "iconHolder"; name; attr ]
              ~classes:[ "IconHolder"; String.capitalize_ascii name;
                         String.capitalize_ascii attr ]
          in
          let classes =
            match holder_attr "classes" with
            | Some v -> split_words v
            | None -> []
          in
          let bool_attr attr =
            Option.bind (holder_attr attr) Swm_xrdb.Xrdb.parse_bool = Some true
          in
          let fixed_size =
            match holder_attr "size" with
            | Some text -> (
                match Geom.parse (String.trim text) with
                | Ok { Geom.width = Some w; height = Some h; _ } -> Some (w, h)
                | Ok _ | Error _ -> None)
            | None -> None
          in
          let holder =
            {
              Ctx.holder_name = name;
              holder_screen = screen;
              holder_obj = None;
              holder_clients = [];
              holder_classes = classes;
              hide_when_empty = bool_attr "hideWhenEmpty";
              size_to_fit = bool_attr "sizeToFit";
              holder_fixed_size = fixed_size;
              holder_scroll = 0;
            }
          in
          let obj = Wobj.make scr.tk Wobj.Panel ~name in
          let pos =
            match holder_attr "geometry" with
            | Some g -> (
                match Geom.parse g with
                | Ok spec ->
                    let sw, sh = Server.screen_size ctx.server ~screen in
                    let r =
                      Geom.resolve spec ~default:(Geom.rect 0 0 80 40)
                        ~within:(Geom.rect 0 0 sw sh)
                    in
                    Geom.point r.x r.y
                | Error _ -> Geom.point 0 0)
            | None -> Geom.point 0 0
          in
          Wobj.realize obj ~parent_window:scr.root ~at:pos;
          if not holder.hide_when_empty then Wobj.map obj;
          holder.holder_obj <- Some obj;
          scr.holders <- scr.holders @ [ holder ])
        (split_words names)

(* -------- root icons -------- *)

let create_root_icons (ctx : Ctx.t) ~screen =
  match Config.query1 ctx.cfg ~screen "rootIcons" with
  | None -> ()
  | Some names ->
      let scr = Ctx.screen ctx screen in
      let lookup name = Config.panel_definition ctx.cfg ~screen name in
      List.iteri
        (fun i name ->
          match Panel_spec.build scr.tk ~lookup ~kind:Wobj.Panel ~name with
          | Error _ -> ()
          | Ok icon ->
              let parent = Vdesk.effective_parent ctx ~screen ~sticky:false in
              Wobj.realize icon ~parent_window:parent
                ~at:(Geom.point (8 + (i * 80)) 8);
              Wobj.map icon;
              scr.root_icons <- scr.root_icons @ [ icon ])
        (split_words names)
