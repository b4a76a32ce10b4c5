module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event
module Region = Swm_xlib.Region
module Xrdb = Swm_xrdb.Xrdb

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

type item = { item_kind : kind; item_name : string; position : Geom.spec }

type toolkit = {
  server : Server.t;
  conn : Server.conn;
  screen : int;
  query : names:string list -> classes:string list -> string option;
  registry : t Xid.Tbl.t;
  records : (kind * string, record) Hashtbl.t;
      (* the classes made since [records_generation] *)
  definitions : (string, (item list, string) result) Hashtbl.t;
      (* panel definitions parsed since [records_generation], by text *)
  mutable records_generation : int;
  mutable record_hits : int;
  mutable layouts : int; (* panels with children laid out *)
  char_w : int;
  char_h : int;
  pad : int;
}

(* The attribute answers of one class, (kind, name), shared by its objects:
   [query]'s answers, [None] included, as of database [generation]. *)
and record = {
  mutable generation : int;
  answers : (string, string option) Hashtbl.t;
}

and t = {
  tk : toolkit;
  obj_kind : kind;
  obj_name : string;
  record : record;
  mutable overrides : (string * string) list;
  mutable obj_label : string;
  mutable obj_parent : t option;
  mutable obj_children : (t * Geom.spec) list;
  mutable win : Xid.t; (* Xid.none until realized *)
  mutable geom : Geom.rect; (* parent-window relative, valid when realized *)
  mutable external_size : (int * int) option;
  mutable added_masks : Event.mask list; (* selected beside [select_masks] *)
}

let create_toolkit ~server ~conn ~screen ~query =
  {
    server;
    conn;
    screen;
    query;
    registry = Xid.Tbl.create 64;
    records = Hashtbl.create 16;
    definitions = Hashtbl.create 8;
    records_generation = Xrdb.generation ();
    record_hits = 0;
    layouts = 0;
    char_w = 8;
    char_h = 16;
    pad = 4;
  }

let toolkit_server tk = tk.server
let toolkit_conn tk = tk.conn
let toolkit_screen tk = tk.screen
let find_object tk xid = Xid.Tbl.find_opt tk.registry xid

let find_objects_by_name tk name =
  Xid.Tbl.fold
    (fun _ obj acc -> if String.equal obj.obj_name name then obj :: acc else acc)
    tk.registry []

let records tk = Hashtbl.length tk.records
let record_hits tk = tk.record_hits
let layouts tk = tk.layouts

(* A database write drops every record and parsed definition from the
   tables; objects made before it keep their records, and [attr] refills
   them on its next read. *)
let sync tk =
  let generation = Xrdb.generation () in
  if tk.records_generation <> generation then begin
    Hashtbl.reset tk.records;
    Hashtbl.reset tk.definitions;
    tk.records_generation <- generation
  end;
  generation

let definition tk text ~parse =
  ignore (sync tk);
  match Hashtbl.find_opt tk.definitions text with
  | Some items -> items
  | None ->
      let items = parse text in
      Hashtbl.add tk.definitions text items;
      items

let class_record tk kind name =
  let generation = sync tk in
  match Hashtbl.find_opt tk.records (kind, name) with
  | Some record -> record
  | None ->
      let record = { generation; answers = Hashtbl.create 8 } in
      Hashtbl.add tk.records (kind, name) record;
      record

let make tk obj_kind ~name =
  {
    tk;
    obj_kind;
    obj_name = name;
    record = class_record tk obj_kind name;
    overrides = [];
    obj_label = (match obj_kind with Button | Text -> name | Panel | Menu -> "");
    obj_parent = None;
    obj_children = [];
    win = Xid.none;
    geom = Geom.rect 0 0 0 0;
    external_size = None;
    added_masks = [];
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

let set_attr obj key value =
  obj.overrides <- (key, value) :: List.remove_assoc key obj.overrides

let attr obj key =
  match List.assoc_opt key obj.overrides with
  | Some _ as v -> v
  | None -> (
      let record = obj.record and generation = Xrdb.generation () in
      if record.generation <> generation then begin
        Hashtbl.clear record.answers;
        record.generation <- generation
      end;
      match Hashtbl.find record.answers key with
      | answer ->
          obj.tk.record_hits <- obj.tk.record_hits + 1;
          answer
      | exception Not_found ->
          let answer =
            obj.tk.query
              ~names:[ kind_name obj.obj_kind; obj.obj_name; key ]
              ~classes:
                [ kind_class obj.obj_kind; capitalize obj.obj_name; capitalize key ]
          in
          Hashtbl.add record.answers key answer;
          answer)

let attr_bool obj key ~default =
  Option.value ~default (Option.bind (attr obj key) Swm_xrdb.Xrdb.parse_bool)

let label obj = obj.obj_label
let set_external_size obj size = obj.external_size <- size
let add_event_masks obj masks = obj.added_masks <- obj.added_masks @ masks

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

(* An object laid out: its natural size, and its children's rectangles
   (panel-interior coordinates of each child's border corner) in creation
   order, each with the child's own layout.  One [lay_out] lays out every
   panel of the tree once. *)
type layout = { size : int * int; placed : (t * Geom.rect * layout) list }

let rec lay_out obj =
  let tk = obj.tk in
  let placed =
    match obj.obj_children with
    | [] -> []
    | children ->
        tk.layouts <- tk.layouts + 1;
        arrange obj
          (List.map
             (fun (child, (spec : Geom.spec)) ->
               let laid = lay_out child in
               let nw, nh = laid.size in
               let w = Option.value spec.width ~default:nw in
               let h = Option.value spec.height ~default:nh in
               ((child, laid), spec, w + (2 * border_width), h + (2 * border_width)))
             children)
  in
  let size =
    match obj.external_size with
    | Some size -> size
    | None -> (
        match obj.obj_kind with
        | Button | Text ->
            let text_w = String.length obj.obj_label * tk.char_w in
            let w =
              match attr obj "width" with
              | Some v -> ( match int_of_string_opt v with Some n -> n | None -> text_w)
              | None -> text_w
            in
            (w + (2 * tk.pad), tk.char_h + (2 * tk.pad))
        | Panel | Menu -> (
            let bounds =
              List.fold_left
                (fun acc (_, r, _) ->
                  match acc with
                  | None -> Some r
                  | Some b -> Some (Geom.union_bounds b r))
                None placed
            in
            match bounds with
            | None -> (2 * tk.pad, 2 * tk.pad)
            | Some b -> (b.x + b.w + tk.pad, b.y + b.h + tk.pad)))
  in
  { size; placed }

(* Place sized children (sizes include borders) in rows: left-packed,
   right-packed and centred columns.  The positions depend on the children
   only, not on the panel's own final size. *)
and arrange obj sized =
  let tk = obj.tk in
  let max_row = explicit_rows obj.obj_children in
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
  let place ((child, laid), _, _, _) rect = results := (child, rect, laid) :: !results in
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
        (fun ((_, _, w, ch) as m) ->
          place m (Geom.rect !x !y w ch);
          x := !x + w + col_gap)
        lefts;
      let rx = ref (panel_w - tk.pad) in
      List.iter
        (fun ((_, _, w, ch) as m) ->
          rx := !rx - w;
          place m (Geom.rect !rx !y w ch);
          rx := !rx - col_gap)
        rights;
      List.iter
        (fun ((_, _, w, ch) as m) -> place m (Geom.rect ((panel_w - w) / 2) !y w ch))
        centers;
      if members <> [] then y := !y + h + row_gap)
    rows;
  List.rev !results

let natural_size obj = (lay_out obj).size

(* -------- realization -------- *)

let background_char obj =
  match attr obj "background" with
  | Some s when s <> "" -> Some s.[0]
  | Some _ | None -> (
      match obj.obj_kind with
      | Panel | Menu -> Some ' '
      | Button -> Some ' '
      | Text -> Some ' ')

(* No Exposure_mask: the server keeps each window's label, background and
   art and renders from them, so nothing here repaints on Expose, and X
   sends Expose only to a selector. *)
let select_masks =
  [
    Event.Button_press_mask;
    Event.Button_release_mask;
    Event.Key_press_mask;
    Event.Enter_leave_mask;
  ]

let event_masks obj = obj.added_masks @ select_masks

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

(* Buttons may carry a bitmap image attribute instead of text: a stock
   bitmap renders as character art; unknown names show bracketed.  Only a
   default label gives way, the name string itself: a label set before
   realization stays even when it reads the same as the name. *)
let rec resolve_images obj =
  (match obj.obj_kind with
  | Button | Text -> (
      match attr obj "image" with
      | Some image when obj.obj_label == obj.obj_name -> (
          match Swm_xlib.Bitmap.find image with
          | Some _ -> obj.obj_label <- ""
          | None -> obj.obj_label <- "[" ^ image ^ "]")
      | Some _ | None -> ())
  | Panel | Menu -> ());
  List.iter (fun (child, _) -> resolve_images child) obj.obj_children

(* A placed rectangle includes the child's border. *)
let interior (rect : Geom.rect) =
  Geom.rect rect.x rect.y (rect.w - (2 * border_width)) (rect.h - (2 * border_width))

(* Create [obj]'s window at its final geometry, selecting its events in the
   same request, then its children's; one MapSubwindows maps the children
   and the shape is applied once, over final geometry. *)
let rec create obj ~parent_window ~geom ~override_redirect laid =
  let tk = obj.tk in
  obj.win <-
    Server.create_window tk.server tk.conn ~parent:parent_window ~geom
      ~border:border_width ~override_redirect ~event_mask:(event_masks obj)
      ?background:(background_char obj)
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
  List.iter
    (fun (child, rect, child_laid) ->
      create child ~parent_window:obj.win ~geom:(interior rect) ~override_redirect:false
        child_laid)
    laid.placed;
  if laid.placed <> [] then Server.map_subwindows tk.server tk.conn obj.win;
  apply_shape obj

let realize ?(override_redirect = false) obj ~parent_window ~at =
  resolve_images obj;
  let laid = lay_out obj in
  let w, h = laid.size in
  create obj ~parent_window ~geom:(Geom.rect at.Geom.px at.Geom.py w h) ~override_redirect
    laid

(* Destroying the root window destroys its inferiors, so the rest of the
   subtree is only dropped from the registry. *)
let unrealize obj =
  let rec forget obj =
    List.iter (fun (child, _) -> forget child) obj.obj_children;
    if is_realized obj then begin
      Xid.Tbl.remove obj.tk.registry obj.win;
      obj.win <- Xid.none
    end
  in
  if is_realized obj && Server.window_exists obj.tk.server obj.win then
    Server.destroy_window obj.tk.server obj.win;
  forget obj

(* Impose a layout on a realized subtree whose own size has already been
   decided (by the parent's layout, or by [relayout] for the root). *)
let rec rearrange obj laid =
  if is_realized obj then begin
    let tk = obj.tk in
    List.iter
      (fun (child, rect, child_laid) ->
        if is_realized child then begin
          let geom = interior rect in
          if not (Geom.rect_equal geom child.geom) then begin
            Server.move_resize tk.server tk.conn child.win geom;
            child.geom <- geom
          end;
          rearrange child child_laid
        end)
      laid.placed;
    apply_shape obj
  end

(* Size only: the root's position belongs to whoever placed it (the WM
   moves frames without telling the toolkit), so [obj.geom]'s x/y may be
   stale and must not be sent back. *)
let relayout obj =
  if is_realized obj then begin
    let laid = lay_out obj in
    let nw, nh = laid.size in
    if nw <> obj.geom.w || nh <> obj.geom.h then begin
      Server.configure_window obj.tk.server obj.tk.conn obj.win
        { Event.no_changes with cw = Some nw; ch = Some nh };
      obj.geom <- { obj.geom with Geom.w = nw; h = nh }
    end;
    rearrange obj laid
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

module Private = struct
  let layout_children obj =
    List.map (fun (child, rect, _) -> (child, rect)) (lay_out obj).placed

  let bind obj win =
    if is_realized obj then Xid.Tbl.remove obj.tk.registry obj.win;
    obj.win <- win;
    if is_realized obj then Xid.Tbl.replace obj.tk.registry win obj

  let set_geometry obj geom = obj.geom <- geom
  let set_text obj text = obj.obj_label <- text
  let event_masks = event_masks
  let apply_shape = apply_shape
end
