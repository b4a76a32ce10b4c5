module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event
module Region = Swm_xlib.Region

type kind = Panel | Button | Text | Menu

let kind_name = function
  | Panel -> "panel"
  | Button -> "button"
  | Text -> "text"
  | Menu -> "menu"

let kind_class = function
  | Panel -> "Panel"
  | Button -> "Button"
  | Text -> "Text"
  | Menu -> "Menu"

type toolkit = {
  server : Server.t;
  conn : Server.conn;
  screen : int;
  query : names:string list -> classes:string list -> string option;
  registry : t Xid.Tbl.t;
  char_w : int;
  char_h : int;
  pad : int;
}

and t = {
  tk : toolkit;
  obj_kind : kind;
  obj_name : string;
  overrides : (string, string) Hashtbl.t;
  mutable obj_label : string;
  mutable obj_parent : t option;
  mutable obj_children : (t * Geom.spec) list;
  mutable win : Xid.t; (* Xid.none until realized *)
  mutable geom : Geom.rect; (* parent-window relative, valid when realized *)
  mutable external_size : (int * int) option;
  mutable handler : (t -> Event.t -> unit) option;
}

let create_toolkit ~server ~conn ~screen ~query =
  {
    server;
    conn;
    screen;
    query;
    registry = Xid.Tbl.create 64;
    char_w = 8;
    char_h = 16;
    pad = 4;
  }

let toolkit_server tk = tk.server
let toolkit_conn tk = tk.conn
let toolkit_screen tk = tk.screen
let char_cell tk = (tk.char_w, tk.char_h)
let find_object tk xid = Xid.Tbl.find_opt tk.registry xid

let iter_objects tk f = Xid.Tbl.iter (fun _ obj -> f obj) tk.registry

let find_objects_by_name tk name =
  Xid.Tbl.fold
    (fun _ obj acc -> if String.equal obj.obj_name name then obj :: acc else acc)
    tk.registry []

let make tk obj_kind ~name =
  {
    tk;
    obj_kind;
    obj_name = name;
    overrides = Hashtbl.create 4;
    obj_label = (match obj_kind with Button | Text -> name | Panel | Menu -> "");
    obj_parent = None;
    obj_children = [];
    win = Xid.none;
    geom = Geom.rect 0 0 0 0;
    external_size = None;
    handler = None;
  }

let name obj = obj.obj_name
let kind obj = obj.obj_kind
let toolkit obj = obj.tk
let parent obj = obj.obj_parent
let children obj = List.map fst obj.obj_children

let window obj =
  if Xid.is_none obj.win then
    invalid_arg (Printf.sprintf "Wobj.window: %S not realized" obj.obj_name)
  else obj.win

let is_realized obj = not (Xid.is_none obj.win)

let add_child parent_obj child ~position =
  (match parent_obj.obj_kind with
  | Panel | Menu -> ()
  | Button | Text ->
      invalid_arg
        (Printf.sprintf "Wobj.add_child: %s %S cannot hold children"
           (kind_name parent_obj.obj_kind) parent_obj.obj_name));
  child.obj_parent <- Some parent_obj;
  parent_obj.obj_children <- parent_obj.obj_children @ [ (child, position) ]

let remove_child parent_obj child =
  parent_obj.obj_children <-
    List.filter (fun (c, _) -> c != child) parent_obj.obj_children;
  child.obj_parent <- None

let rec find_descendant obj ~name =
  if String.equal obj.obj_name name then Some obj
  else
    List.fold_left
      (fun acc (child, _) ->
        match acc with Some _ -> acc | None -> find_descendant child ~name)
      None obj.obj_children

(* -------- attributes -------- *)

let capitalize = String.capitalize_ascii

let set_attr obj key value = Hashtbl.replace obj.overrides key value

let attr obj key =
  match Hashtbl.find_opt obj.overrides key with
  | Some v -> Some v
  | None ->
      obj.tk.query
        ~names:[ kind_name obj.obj_kind; obj.obj_name; key ]
        ~classes:[ kind_class obj.obj_kind; capitalize obj.obj_name; capitalize key ]

let attr_bool obj key ~default =
  Option.value ~default (Option.bind (attr obj key) Swm_xrdb.Xrdb.parse_bool)

let label obj = obj.obj_label
let set_external_size obj size = obj.external_size <- size

(* -------- natural size -------- *)

let border_width = 1
let row_gap = 2
let col_gap = 2

(* Row index a child participates in; From_end rows are resolved against the
   current maximum explicit row. *)
let row_of_spec (spec : Geom.spec) ~max_row =
  match spec.yoff with
  | Some (Geom.From_start r) -> r
  | Some (Geom.From_end r) -> max 0 (max_row - r)
  | Some Geom.Centered | None -> 0

let explicit_rows children =
  List.fold_left
    (fun acc (_, (spec : Geom.spec)) ->
      match spec.yoff with Some (Geom.From_start r) -> max acc r | _ -> acc)
    0 children

let rec natural_size obj =
  match obj.external_size with
  | Some size -> size
  | None -> (
      match obj.obj_kind with
      | Button | Text ->
          let tk = obj.tk in
          let text_w = String.length obj.obj_label * tk.char_w in
          let w =
            match attr obj "width" with
            | Some v -> ( match int_of_string_opt v with Some n -> n | None -> text_w)
            | None -> text_w
          in
          (w + (2 * tk.pad), tk.char_h + (2 * tk.pad))
      | Panel | Menu ->
          let rects = layout_children obj in
          let bounds =
            List.fold_left
              (fun acc (_, r) ->
                match acc with
                | None -> Some r
                | Some b -> Some (Geom.union_bounds b r))
              None rects
          in
          (match bounds with
          | None -> (2 * obj.tk.pad, 2 * obj.tk.pad)
          | Some b -> (b.x + b.w + obj.tk.pad, b.y + b.h + obj.tk.pad)))

(* Compute child rectangles (panel-interior coordinates, of each child's
   border corner).  Two passes: first natural sizes and row structure, then
   positions (left-packed, right-packed and centred columns). *)
and layout_children obj =
  let tk = obj.tk in
  let children = obj.obj_children in
  if children = [] then []
  else begin
    let max_row = explicit_rows children in
    let sized =
      List.map
        (fun (child, (spec : Geom.spec)) ->
          let nw, nh = natural_size child in
          let w = Option.value spec.width ~default:nw in
          let h = Option.value spec.height ~default:nh in
          (child, spec, w + (2 * border_width), h + (2 * border_width)))
        children
    in
    let row_members r =
      List.filter (fun (_, spec, _, _) -> row_of_spec spec ~max_row = r) sized
    in
    let rows = List.init (max_row + 1) row_members in
    let row_height members =
      List.fold_left (fun acc (_, _, _, h) -> max acc h) 0 members
    in
    (* Width needed by a row when packed with gaps. *)
    let row_width members =
      match members with
      | [] -> 0
      | _ ->
          List.fold_left (fun acc (_, _, w, _) -> acc + w + col_gap) (-col_gap) members
    in
    let panel_w =
      List.fold_left (fun acc members -> max acc (row_width members)) 0 rows
      + (2 * tk.pad)
    in
    (* Menus stack items full-width. *)
    let panel_w =
      if obj.obj_kind = Menu then
        List.fold_left (fun acc (_, _, w, _) -> max acc (w + (2 * tk.pad))) panel_w sized
      else panel_w
    in
    let results = ref [] in
    let y = ref tk.pad in
    List.iter
      (fun members ->
        let h = row_height members in
        let col_key (_, (spec : Geom.spec), _, _) =
          match spec.xoff with
          | Some (Geom.From_start c) -> c
          | Some (Geom.From_end c) -> c
          | Some Geom.Centered | None -> 0
        in
        let lefts =
          List.filter
            (fun (_, (s : Geom.spec), _, _) ->
              match s.xoff with Some (Geom.From_start _) | None -> true | _ -> false)
            members
          |> List.sort (fun a b -> compare (col_key a) (col_key b))
        in
        let rights =
          List.filter
            (fun (_, (s : Geom.spec), _, _) ->
              match s.xoff with Some (Geom.From_end _) -> true | _ -> false)
            members
          |> List.sort (fun a b -> compare (col_key a) (col_key b))
        in
        let centers =
          List.filter
            (fun (_, (s : Geom.spec), _, _) ->
              match s.xoff with Some Geom.Centered -> true | _ -> false)
            members
        in
        let x = ref tk.pad in
        List.iter
          (fun (child, _, w, ch) ->
            results := (child, Geom.rect !x !y w ch) :: !results;
            x := !x + w + col_gap)
          lefts;
        let rx = ref (panel_w - tk.pad) in
        List.iter
          (fun (child, _, w, ch) ->
            rx := !rx - w;
            results := (child, Geom.rect !rx !y w ch) :: !results;
            rx := !rx - col_gap)
          rights;
        List.iter
          (fun (child, _, w, ch) ->
            results := (child, Geom.rect ((panel_w - w) / 2) !y w ch) :: !results)
          centers;
        if members <> [] then y := !y + h + row_gap)
      rows;
    List.rev !results
  end

(* -------- realization -------- *)

let background_char obj =
  match attr obj "background" with
  | Some s when s <> "" -> Some s.[0]
  | Some _ | None -> (
      match obj.obj_kind with
      | Panel | Menu -> Some ' '
      | Button -> Some ' '
      | Text -> Some ' ')

let select_masks =
  [
    Event.Button_press_mask;
    Event.Button_release_mask;
    Event.Key_press_mask;
    Event.Enter_leave_mask;
    Event.Exposure_mask;
  ]

let apply_shape obj =
  if attr_bool obj "shape" ~default:false && is_realized obj then begin
    match attr obj "shapeMask" with
    | Some _ ->
        (* Named masks stand in for bitmap files: a disc the size of the
           object, matching the oclock-style use in the paper. *)
        let w, h = (obj.geom.w, obj.geom.h) in
        let r = min w h / 2 in
        Server.shape_set obj.tk.server obj.tk.conn obj.win
          (Region.disc ~cx:(w / 2) ~cy:(h / 2) ~r)
    | None ->
        (* No mask: shape the panel to contain its children (paper §5). *)
        let region =
          List.fold_left
            (fun acc (child, _) ->
              if is_realized child then
                Region.union acc
                  (Region.of_rect
                     (Geom.rect child.geom.x child.geom.y
                        (child.geom.w + (2 * border_width))
                        (child.geom.h + (2 * border_width))))
              else acc)
            Region.empty obj.obj_children
        in
        if not (Region.is_empty region) then
          Server.shape_set obj.tk.server obj.tk.conn obj.win region
  end

let rec realize ?(override_redirect = false) obj ~parent_window ~at =
  let tk = obj.tk in
  (* Buttons may carry a bitmap image attribute instead of text: a stock
     bitmap renders as character art; unknown names show bracketed. *)
  (match obj.obj_kind with
  | Button | Text -> (
      match attr obj "image" with
      | Some image when String.equal obj.obj_label obj.obj_name -> (
          match Swm_xlib.Bitmap.find image with
          | Some _ -> obj.obj_label <- ""
          | None -> obj.obj_label <- "[" ^ image ^ "]")
      | Some _ | None -> ())
  | Panel | Menu -> ());
  let nw, nh = natural_size obj in
  let geom = Geom.rect at.Geom.px at.Geom.py nw nh in
  obj.win <-
    Server.create_window tk.server tk.conn ~parent:parent_window ~geom
      ~border:border_width ~override_redirect ?background:(background_char obj)
      ?label:
        (match obj.obj_kind with
        | Button | Text -> Some obj.obj_label
        | Panel | Menu -> None)
      ();
  obj.geom <- geom;
  (match (obj.obj_kind, attr obj "image") with
  | (Button | Text), Some image -> (
      match Swm_xlib.Bitmap.find image with
      | Some bitmap -> Server.set_art tk.server obj.win (Some bitmap.rows)
      | None -> ())
  | _ -> ());
  Xid.Tbl.replace tk.registry obj.win obj;
  Server.select_input tk.server tk.conn obj.win select_masks;
  let placed = layout_children obj in
  List.iter
    (fun (child, rect) ->
      realize child ~parent_window:obj.win ~at:(Geom.point rect.Geom.x rect.Geom.y);
      Server.map_window tk.server tk.conn child.win)
    placed;
  apply_shape obj

let rec unrealize obj =
  List.iter (fun (child, _) -> unrealize child) obj.obj_children;
  if is_realized obj then begin
    Xid.Tbl.remove obj.tk.registry obj.win;
    if Server.window_exists obj.tk.server obj.win then
      Server.destroy_window obj.tk.server obj.win;
    obj.win <- Xid.none
  end

(* Lay out a realized subtree whose own size has already been decided (by
   the parent's layout, or by [relayout] for the root). *)
let rec relayout_tree obj =
  if is_realized obj then begin
    let tk = obj.tk in
    let placed = layout_children obj in
    List.iter
      (fun (child, rect) ->
        if is_realized child then begin
          (* [layout_children] rects include the child's border. *)
          let interior =
            Geom.rect rect.Geom.x rect.Geom.y
              (rect.Geom.w - (2 * border_width))
              (rect.Geom.h - (2 * border_width))
          in
          if not (Geom.rect_equal interior child.geom) then begin
            Server.move_resize tk.server tk.conn child.win interior;
            child.geom <- interior
          end;
          relayout_tree child
        end)
      placed;
    apply_shape obj
  end

(* Size only: the root's position belongs to whoever placed it (the WM
   moves frames without telling the toolkit), so [obj.geom]'s x/y may be
   stale and must not be sent back. *)
let relayout obj =
  if is_realized obj then begin
    let nw, nh = natural_size obj in
    if nw <> obj.geom.w || nh <> obj.geom.h then begin
      Server.configure_window obj.tk.server obj.tk.conn obj.win
        { Event.no_changes with cw = Some nw; ch = Some nh };
      obj.geom <- { obj.geom with Geom.w = nw; h = nh }
    end;
    relayout_tree obj
  end

let set_label obj text =
  obj.obj_label <- text;
  if is_realized obj then begin
    Server.set_label obj.tk.server obj.win
      (match obj.obj_kind with Button | Text -> Some text | Panel | Menu -> None);
    (* Propagate the size change to the top of the realized tree. *)
    let rec top o = match o.obj_parent with Some p when is_realized p -> top p | _ -> o in
    relayout (top obj)
  end

let geometry obj = obj.geom

let map obj =
  if is_realized obj then Server.map_window obj.tk.server obj.tk.conn obj.win

let unmap obj =
  if is_realized obj then Server.unmap_window obj.tk.server obj.tk.conn obj.win

let set_handler obj h = obj.handler <- h
let handler obj = obj.handler

(* The recursive [realize] creates children at their natural sizes; a final
   [relayout] imposes the laid-out sizes (specs may override widths, and
   centred/right columns depend on the finished panel width). *)
let realize ?override_redirect obj ~parent_window ~at =
  realize ?override_redirect obj ~parent_window ~at;
  relayout obj
