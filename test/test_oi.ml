module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Wobj = Swm_oi.Wobj
module Panel_spec = Swm_oi.Panel_spec
module Menu = Swm_oi.Menu
module Xrdb = Swm_xrdb.Xrdb

let check = Alcotest.check

let fixture ?(resources = "") () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"oi" in
  let db = Xrdb.create () in
  (match Xrdb.load_string db resources with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "bad fixture resources: %s" msg);
  let tk =
    Wobj.create_toolkit ~server ~conn ~screen:0 ~query:(fun ~names ~classes ->
        Xrdb.query db ~names:("swm" :: names) ~classes:("Swm" :: classes))
  in
  (server, conn, tk, db)

let realize_on_root server tk obj =
  Wobj.realize obj ~parent_window:(Server.root server ~screen:0) ~at:(Geom.point 0 0);
  ignore tk

(* -------- object basics -------- *)

let test_make_and_tree () =
  let _server, _conn, tk, _db = fixture () in
  let panel = Wobj.make tk Wobj.Panel ~name:"p" in
  let b1 = Wobj.make tk Wobj.Button ~name:"b1" in
  let b2 = Wobj.make tk Wobj.Button ~name:"b2" in
  Wobj.add_child panel b1 ~position:(Geom.parse_exn "+0+0");
  Wobj.add_child panel b2 ~position:(Geom.parse_exn "+1+0");
  check Alcotest.int "two children" 2 (List.length (Wobj.children panel));
  check Alcotest.bool "parent set" true
    (match Wobj.parent b1 with Some p -> p == panel | None -> false);
  check Alcotest.bool "find descendant" true
    (match Wobj.find_descendant panel ~name:"b2" with
    | Some found -> found == b2
    | None -> false);
  Wobj.remove_child panel b1;
  check Alcotest.int "one child left" 1 (List.length (Wobj.children panel))

let test_buttons_cannot_hold_children () =
  let _server, _conn, tk, _db = fixture () in
  let b = Wobj.make tk Wobj.Button ~name:"b" in
  let c = Wobj.make tk Wobj.Button ~name:"c" in
  try
    Wobj.add_child b c ~position:(Geom.parse_exn "+0+0");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_attr_precedence () =
  let _server, _conn, tk, _db =
    fixture ~resources:"swm*button.foo.bindings: <Btn1> : f.raise\n" ()
  in
  let b = Wobj.make tk Wobj.Button ~name:"foo" in
  check (Alcotest.option Alcotest.string) "db attr"
    (Some "<Btn1> : f.raise") (Wobj.attr b "bindings");
  Wobj.set_attr b "bindings" "<Btn2> : f.lower";
  check (Alcotest.option Alcotest.string) "override shadows"
    (Some "<Btn2> : f.lower") (Wobj.attr b "bindings");
  check Alcotest.bool "missing attr" true (Wobj.attr b "nothing" = None)

(* -------- layout -------- *)

let openlook_def =
  "button pulldown +0+0 button name +C+0 button nail -0+0 panel client +0+1"

let build_openlook tk =
  match
    Panel_spec.build_from_spec tk ~lookup:(fun _ -> None) ~kind:Wobj.Panel
      ~name:"openLook" ~spec:openlook_def
  with
  | Ok p -> p
  | Error msg -> Alcotest.failf "build failed: %s" msg

let test_panel_spec_parse () =
  match Panel_spec.parse openlook_def with
  | Ok items ->
      check Alcotest.int "four items" 4 (List.length items);
      let kinds = List.map (fun i -> i.Panel_spec.item_kind) items in
      check Alcotest.bool "kinds" true
        (kinds = [ Wobj.Button; Wobj.Button; Wobj.Button; Wobj.Panel ])
  | Error msg -> Alcotest.fail msg

let test_panel_spec_errors () =
  List.iter
    (fun bad ->
      match Panel_spec.parse bad with
      | Ok _ -> Alcotest.failf "expected %S to fail" bad
      | Error _ -> ())
    [ "button"; "button b"; "gizmo g +0+0"; "button b nowhere" ]

let test_layout_rows_and_columns () =
  let server, _conn, tk, _db = fixture () in
  let panel = build_openlook tk in
  (match Wobj.find_descendant panel ~name:"client" with
  | Some client -> Wobj.set_external_size client (Some (320, 160))
  | None -> Alcotest.fail "no client panel");
  realize_on_root server tk panel;
  let geom_of name =
    match Wobj.find_descendant panel ~name with
    | Some obj -> Wobj.geometry obj
    | None -> Alcotest.failf "missing %s" name
  in
  let pulldown = geom_of "pulldown" in
  let name = geom_of "name" in
  let nail = geom_of "nail" in
  let client = geom_of "client" in
  let frame = Wobj.geometry panel in
  (* Row 0: pulldown left, name centred, nail right; row 1: client. *)
  check Alcotest.bool "pulldown at left" true (pulldown.x < 10);
  check Alcotest.bool "nail at right" true (nail.x + nail.w > frame.w - 10);
  let name_centre = name.x + (name.w / 2) and frame_centre = frame.w / 2 in
  check Alcotest.bool "name centred" true (abs (name_centre - frame_centre) <= 4);
  check Alcotest.bool "client below title row" true
    (client.y >= pulldown.y + pulldown.h);
  check Alcotest.int "client width preserved" 320 client.w;
  check Alcotest.int "client height preserved" 160 client.h;
  check Alcotest.bool "frame wraps client" true (frame.w >= client.w && frame.h > client.h)

let test_layout_explicit_rows () =
  let server, _conn, tk, _db = fixture () in
  let panel = Wobj.make tk Wobj.Panel ~name:"grid" in
  let mk name pos =
    let b = Wobj.make tk Wobj.Button ~name in
    Wobj.add_child panel b ~position:(Geom.parse_exn pos);
    b
  in
  let a = mk "a" "+0+0" in
  let b = mk "b" "+1+0" in
  let c = mk "c" "+0+1" in
  realize_on_root server tk panel;
  let ga = Wobj.geometry a and gb = Wobj.geometry b and gc = Wobj.geometry c in
  check Alcotest.bool "a before b in row 0" true (ga.x + ga.w <= gb.x);
  check Alcotest.bool "same row" true (ga.y = gb.y);
  check Alcotest.bool "c in next row" true (gc.y >= ga.y + ga.h)

let test_button_image_attribute () =
  let server, _conn, tk, _db =
    fixture
      ~resources:"swm*button.logo.image: xlogo32\nswm*button.odd.image: unknownpix\n"
      ()
  in
  (* A stock bitmap becomes character art on the window. *)
  let b = Wobj.make tk Wobj.Button ~name:"logo" in
  realize_on_root server tk b;
  check Alcotest.bool "bitmap art set" true
    (Server.art_of server (Wobj.window b) <> None);
  check Alcotest.string "no text label" "" (Wobj.label b);
  (* An unknown bitmap name shows bracketed. *)
  let u = Wobj.make tk Wobj.Button ~name:"odd" in
  realize_on_root server tk u;
  check Alcotest.string "unknown image bracketed" "[unknownpix]" (Wobj.label u);
  (* An explicit label wins over the image attribute. *)
  let c = Wobj.make tk Wobj.Button ~name:"logo" in
  Wobj.set_label c "text";
  realize_on_root server tk c;
  check Alcotest.string "explicit label preserved" "text" (Wobj.label c)

let test_natural_size_from_label () =
  let _server, _conn, tk, _db = fixture () in
  let b = Wobj.make tk Wobj.Button ~name:"b" in
  Wobj.set_label b "hi";
  let w1, _ = Wobj.natural_size b in
  Wobj.set_label b "a much longer label";
  let w2, _ = Wobj.natural_size b in
  check Alcotest.bool "longer label, wider button" true (w2 > w1)

let test_set_label_relayouts () =
  let server, _conn, tk, _db = fixture () in
  let panel = build_openlook tk in
  realize_on_root server tk panel;
  let name_obj = Option.get (Wobj.find_descendant panel ~name:"name") in
  let before = (Wobj.geometry name_obj).w in
  Wobj.set_label name_obj "a considerably longer window title";
  let after = (Wobj.geometry name_obj).w in
  check Alcotest.bool "grew" true (after > before);
  check Alcotest.string "window label updated"
    "a considerably longer window title"
    (Option.value ~default:"" (Server.label_of server (Wobj.window name_obj)))

let test_nested_panel_lookup () =
  let server, _conn, tk, _db = fixture () in
  let defs =
    [ ("outer", "button x +0+0 panel inner +0+1"); ("inner", "button y +0+0") ]
  in
  match
    Panel_spec.build tk ~lookup:(fun n -> List.assoc_opt n defs) ~kind:Wobj.Panel
      ~name:"outer"
  with
  | Error msg -> Alcotest.fail msg
  | Ok panel ->
      realize_on_root server tk panel;
      check Alcotest.bool "nested button realized" true
        (match Wobj.find_descendant panel ~name:"y" with
        | Some y -> Wobj.is_realized y
        | None -> false)

let test_cycle_detection () =
  let _server, _conn, tk, _db = fixture () in
  let defs =
    [ ("a", "panel b +0+0"); ("b", "panel a +0+0") ]
  in
  match
    Panel_spec.build tk ~lookup:(fun n -> List.assoc_opt n defs) ~kind:Wobj.Panel ~name:"a"
  with
  | Error msg ->
      check Alcotest.bool "mentions cycle" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected cycle error"

(* A definition is parsed once per database generation and by its text, so
   a write that changes it is seen by the next build. *)
let test_definition_read_anew () =
  let _server, _conn, tk, db =
    fixture ~resources:"swm*panel.deco: button a +0+0 button b +1+0\n" ()
  in
  let lookup name =
    Xrdb.query db ~names:[ "swm"; "panel"; name ]
      ~classes:[ "Swm"; "Panel"; String.capitalize_ascii name ]
  in
  let built () =
    match Panel_spec.build tk ~lookup ~kind:Wobj.Panel ~name:"deco" with
    | Ok panel -> List.map Wobj.name (Wobj.children panel)
    | Error msg -> Alcotest.fail msg
  in
  let names = Alcotest.(list string) in
  check names "first build" [ "a"; "b" ] (built ());
  check names "same definition" [ "a"; "b" ] (built ());
  Xrdb.put db "swm*panel.deco" "button c +0+0 text d +0+1";
  check names "after the write" [ "c"; "d" ] (built ())

let test_dispatch_registry () =
  let server, _conn, tk, _db = fixture () in
  let panel = build_openlook tk in
  realize_on_root server tk panel;
  let nail = Option.get (Wobj.find_descendant panel ~name:"nail") in
  let nail_win = Wobj.window nail in
  check Alcotest.bool "window maps back to object" true
    (match Wobj.find_object tk nail_win with
    | Some found -> found == nail
    | None -> false);
  Wobj.unrealize panel;
  check Alcotest.bool "unregistered after unrealize" true
    (Wobj.find_object tk nail_win = None);
  check Alcotest.bool "window destroyed" false (Server.window_exists server nail_win)

let test_shape_to_children () =
  let server, _conn, tk, _db =
    fixture ~resources:"swm*panel.shapeit*shape: True\n" ()
  in
  let panel = Wobj.make tk Wobj.Panel ~name:"shapeit" in
  let b = Wobj.make tk Wobj.Button ~name:"only" in
  Wobj.add_child panel b ~position:(Geom.parse_exn "+0+0");
  realize_on_root server tk panel;
  check Alcotest.bool "panel window shaped" true
    (Server.is_shaped server (Wobj.window panel))

(* -------- menus -------- *)

let test_menu_post_unpost () =
  let server, _conn, tk, _db = fixture () in
  let menu_obj = Wobj.make tk Wobj.Menu ~name:"m" in
  let item = Wobj.make tk Wobj.Button ~name:"item1" in
  Wobj.add_child menu_obj item ~position:(Geom.parse_exn "+0+0");
  let menu = Menu.create tk menu_obj in
  check Alcotest.bool "initially unposted" false (Menu.is_posted menu);
  check Alcotest.bool "menu window unmapped" false
    (Server.is_mapped server (Wobj.window menu_obj));
  Menu.post menu ~at:(Geom.point 50 60);
  check Alcotest.bool "posted" true (Menu.is_posted menu);
  check Alcotest.bool "mapped" true (Server.is_mapped server (Wobj.window menu_obj));
  let g = Server.geometry server (Wobj.window menu_obj) in
  check Alcotest.int "at x" 50 g.x;
  check Alcotest.int "at y" 60 g.y;
  Menu.unpost menu;
  check Alcotest.bool "unposted again" false
    (Server.is_mapped server (Wobj.window menu_obj))

let test_menu_is_override_redirect () =
  let server, _conn, tk, _db = fixture () in
  (* A WM holding the redirect must NOT see menu maps. *)
  let wm = Server.connect server ~name:"wm" in
  Server.select_input server wm (Server.root server ~screen:0)
    [ Swm_xlib.Event.Substructure_redirect ];
  let menu_obj = Wobj.make tk Wobj.Menu ~name:"m" in
  let item = Wobj.make tk Wobj.Button ~name:"i" in
  Wobj.add_child menu_obj item ~position:(Geom.parse_exn "+0+0");
  let menu = Menu.create tk menu_obj in
  Menu.post menu ~at:(Geom.point 0 0);
  check Alcotest.bool "mapped despite redirect" true
    (Server.is_mapped server (Wobj.window menu_obj));
  check Alcotest.int "no MapRequest to the WM" 0
    (List.length
       (List.filter
          (function Swm_xlib.Event.Map_request _ -> true | _ -> false)
          (Server.flush_batch wm)))

let suite =
  [
    Alcotest.test_case "object trees" `Quick test_make_and_tree;
    Alcotest.test_case "buttons are leaves" `Quick test_buttons_cannot_hold_children;
    Alcotest.test_case "attribute precedence" `Quick test_attr_precedence;
    Alcotest.test_case "panel spec parsing" `Quick test_panel_spec_parse;
    Alcotest.test_case "panel spec errors" `Quick test_panel_spec_errors;
    Alcotest.test_case "openLook row layout" `Quick test_layout_rows_and_columns;
    Alcotest.test_case "explicit rows/columns" `Quick test_layout_explicit_rows;
    Alcotest.test_case "button image attribute" `Quick test_button_image_attribute;
    Alcotest.test_case "natural size from label" `Quick test_natural_size_from_label;
    Alcotest.test_case "set_label triggers relayout" `Quick test_set_label_relayouts;
    Alcotest.test_case "nested panel definitions" `Quick test_nested_panel_lookup;
    Alcotest.test_case "definition cycles rejected" `Quick test_cycle_detection;
    Alcotest.test_case "a written definition is read anew" `Quick
      test_definition_read_anew;
    Alcotest.test_case "dispatch registry" `Quick test_dispatch_registry;
    Alcotest.test_case "shape panel to children" `Quick test_shape_to_children;
    Alcotest.test_case "menu post/unpost" `Quick test_menu_post_unpost;
    Alcotest.test_case "menus bypass the WM" `Quick test_menu_is_override_redirect;
  ]
