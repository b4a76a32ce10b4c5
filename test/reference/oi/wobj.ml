(* The per-window realization that [Swm_oi.Wobj.realize] replaced, kept as
   the reference the realization properties compare against.  Everything
   but [realize], [unrealize], [relayout] and [set_label] is the toolkit
   itself.

   Each object's window is created at the object's natural size, then its
   events are selected and, once its own children are realized, it is
   mapped, each with a request of its own; a final [relayout] imposes the
   laid-out sizes.  Unrealization destroys every window of the tree with a
   request each, children first. *)

include Swm_oi.Wobj
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event

let border_width = 1

let background_char obj =
  match attr obj "background" with
  | Some s when s <> "" -> Some s.[0]
  | Some _ | None -> Some ' '

let rec realize_tree ?(override_redirect = false) obj ~parent_window ~at =
  let tk = toolkit obj in
  let server = toolkit_server tk and conn = toolkit_conn tk in
  (match kind obj with
  | Button | Text -> (
      match attr obj "image" with
      | Some image when label obj == name obj -> (
          match Swm_xlib.Bitmap.find image with
          | Some _ -> Private.set_text obj ""
          | None -> Private.set_text obj ("[" ^ image ^ "]"))
      | Some _ | None -> ())
  | Panel | Menu -> ());
  let nw, nh = natural_size obj in
  let geom = Geom.rect at.Geom.px at.Geom.py nw nh in
  let win =
    Server.create_window server conn ~parent:parent_window ~geom ~border:border_width
      ~override_redirect ?background:(background_char obj)
      ?label:(match kind obj with Button | Text -> Some (label obj) | Panel | Menu -> None)
      ()
  in
  Private.bind obj win;
  Private.set_geometry obj geom;
  (match (kind obj, attr obj "image") with
  | (Button | Text), Some image -> (
      match Swm_xlib.Bitmap.find image with
      | Some bitmap -> Server.set_art server win (Some bitmap.rows)
      | None -> ())
  | _ -> ());
  Server.select_input server conn win (Private.event_masks obj);
  List.iter
    (fun (child, (rect : Geom.rect)) ->
      realize_tree child ~parent_window:win ~at:(Geom.point rect.x rect.y);
      Server.map_window server conn (window child))
    (Private.layout_children obj);
  Private.apply_shape obj

let rec unrealize obj =
  List.iter unrealize (children obj);
  if is_realized obj then begin
    let server = toolkit_server (toolkit obj) in
    let win = window obj in
    Private.bind obj Xid.none;
    if Server.window_exists server win then Server.destroy_window server win
  end

let rec relayout_tree obj =
  if is_realized obj then begin
    let tk = toolkit obj in
    List.iter
      (fun (child, (rect : Geom.rect)) ->
        if is_realized child then begin
          let interior =
            Geom.rect rect.x rect.y (rect.w - (2 * border_width)) (rect.h - (2 * border_width))
          in
          if not (Geom.rect_equal interior (geometry child)) then begin
            Server.move_resize (toolkit_server tk) (toolkit_conn tk) (window child) interior;
            Private.set_geometry child interior
          end;
          relayout_tree child
        end)
      (Private.layout_children obj);
    Private.apply_shape obj
  end

let relayout obj =
  if is_realized obj then begin
    let tk = toolkit obj in
    let nw, nh = natural_size obj in
    let g = geometry obj in
    if nw <> g.w || nh <> g.h then begin
      Server.configure_window (toolkit_server tk) (toolkit_conn tk) (window obj)
        { Event.no_changes with cw = Some nw; ch = Some nh };
      Private.set_geometry obj { g with w = nw; h = nh }
    end;
    relayout_tree obj
  end

let set_label obj text =
  Private.set_text obj text;
  if is_realized obj then begin
    Server.set_label (toolkit_server (toolkit obj)) (window obj)
      (match kind obj with Button | Text -> Some text | Panel | Menu -> None);
    let rec top o = match parent o with Some p when is_realized p -> top p | _ -> o in
    relayout (top obj)
  end

let realize ?override_redirect obj ~parent_window ~at =
  realize_tree ?override_redirect obj ~parent_window ~at;
  relayout obj
