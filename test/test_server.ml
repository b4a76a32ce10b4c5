module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event
module Region = Swm_xlib.Region

let check = Alcotest.check
let rect = Geom.rect

let fixture () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"test" in
  let root = Server.root server ~screen:0 in
  (server, conn, root)

let new_win ?(geom = rect 10 10 100 80) ?border ?override_redirect server conn parent =
  Server.create_window server conn ~parent ~geom ?border ?override_redirect ()

(* -------- tree and geometry -------- *)

let test_create_destroy () =
  let server, conn, root = fixture () in
  let w = new_win server conn root in
  check Alcotest.bool "exists" true (Server.window_exists server w);
  check Alcotest.bool "child of root" true
    (List.exists (Xid.equal w) (Server.children_of server root));
  Server.destroy_window server w;
  check Alcotest.bool "gone" false (Server.window_exists server w);
  check Alcotest.bool "removed from parent" false
    (List.exists (Xid.equal w) (Server.children_of server root))

let test_destroy_recursive () =
  let server, conn, root = fixture () in
  let parent = new_win server conn root in
  let child = new_win server conn parent in
  let grandchild = new_win server conn child in
  Server.destroy_window server parent;
  check Alcotest.bool "child gone" false (Server.window_exists server child);
  check Alcotest.bool "grandchild gone" false (Server.window_exists server grandchild)

let test_destroy_root_rejected () =
  let server, _conn, root = fixture () in
  Alcotest.check_raises "root is indestructible"
    (Invalid_argument "Server.destroy_window: root window") (fun () ->
      Server.destroy_window server root)

let test_stacking () =
  let server, conn, root = fixture () in
  let a = new_win server conn root in
  let b = new_win server conn root in
  let c = new_win server conn root in
  check (Alcotest.list Alcotest.int) "creation order bottom-to-top"
    [ Xid.to_int a; Xid.to_int b; Xid.to_int c ]
    (List.map Xid.to_int (Server.children_of server root));
  Server.raise_window server conn a;
  check (Alcotest.list Alcotest.int) "raised to top"
    [ Xid.to_int b; Xid.to_int c; Xid.to_int a ]
    (List.map Xid.to_int (Server.children_of server root));
  Server.lower_window server conn c;
  check (Alcotest.list Alcotest.int) "lowered to bottom"
    [ Xid.to_int c; Xid.to_int b; Xid.to_int a ]
    (List.map Xid.to_int (Server.children_of server root))

let test_translate_coordinates () =
  let server, conn, root = fixture () in
  let outer = new_win server conn root ~geom:(rect 100 50 200 200) ~border:2 in
  let inner = new_win server conn outer ~geom:(rect 10 20 50 50) ~border:1 in
  let p = Server.translate_coordinates server ~src:inner ~dst:root (Geom.point 0 0) in
  (* root + outer(100,50) + outer border 2 + inner(10,20) + inner border 1 *)
  check Alcotest.int "x" (100 + 2 + 10 + 1) p.px;
  check Alcotest.int "y" (50 + 2 + 20 + 1) p.py;
  let back = Server.translate_coordinates server ~src:root ~dst:inner p in
  check Alcotest.int "roundtrip x" 0 back.px;
  check Alcotest.int "roundtrip y" 0 back.py

let test_viewable () =
  let server, conn, root = fixture () in
  let a = new_win server conn root in
  let b = new_win server conn a in
  Server.map_window server conn b;
  check Alcotest.bool "parent unmapped blocks viewability" false
    (Server.is_viewable server b);
  Server.map_window server conn a;
  check Alcotest.bool "now viewable" true (Server.is_viewable server b)

(* -------- events: selection and delivery -------- *)

let test_map_notify_delivery () =
  let server, conn, root = fixture () in
  let observer = Server.connect server ~name:"observer" in
  let w = new_win server conn root in
  Server.select_input server observer w [ Event.Structure_notify ];
  Server.map_window server conn w;
  match Server.flush_batch observer with
  | [ Event.Map_notify { window } ] ->
      check Alcotest.bool "right window" true (Xid.equal window w)
  | events -> Alcotest.failf "expected one MapNotify, got %d events" (List.length events)

let test_substructure_notify () =
  let server, conn, root = fixture () in
  let observer = Server.connect server ~name:"observer" in
  Server.select_input server observer root [ Event.Substructure_notify ];
  let w = new_win server conn root in
  Server.map_window server conn w;
  Server.unmap_window server conn w;
  let kinds =
    List.map
      (function
        | Event.Map_notify _ -> "map"
        | Event.Unmap_notify _ -> "unmap"
        | _ -> "other")
      (Server.flush_batch observer)
  in
  check (Alcotest.list Alcotest.string) "parent sees both" [ "map"; "unmap" ] kinds

let test_redirect_intercepts_map () =
  let server, conn, root = fixture () in
  let wm = Server.connect server ~name:"wm" in
  Server.select_input server wm root [ Event.Substructure_redirect ];
  let w = new_win server conn root in
  Server.map_window server conn w;
  check Alcotest.bool "not actually mapped" false (Server.is_mapped server w);
  (match Server.flush_batch wm with
  | [ Event.Map_request { window; parent } ] ->
      check Alcotest.bool "window" true (Xid.equal window w);
      check Alcotest.bool "parent" true (Xid.equal parent root)
  | _ -> Alcotest.fail "expected MapRequest");
  (* The redirect holder's own map goes through. *)
  Server.map_window server wm w;
  check Alcotest.bool "wm map applies" true (Server.is_mapped server w)

let test_redirect_override () =
  let server, conn, root = fixture () in
  let wm = Server.connect server ~name:"wm" in
  Server.select_input server wm root [ Event.Substructure_redirect ];
  let w = new_win server conn root ~override_redirect:true in
  Server.map_window server conn w;
  check Alcotest.bool "override bypasses redirect" true (Server.is_mapped server w);
  check Alcotest.int "no MapRequest" 0 (Server.pending wm)

let test_redirect_exclusive () =
  let server, _conn, root = fixture () in
  let wm1 = Server.connect server ~name:"wm1" in
  let wm2 = Server.connect server ~name:"wm2" in
  Server.select_input server wm1 root [ Event.Substructure_redirect ];
  (try
     Server.select_input server wm2 root [ Event.Substructure_redirect ];
     Alcotest.fail "second redirect should raise"
   with Server.Bad_access _ -> ());
  (* After the first disconnects, the second may claim it. *)
  Server.disconnect server wm1;
  Server.select_input server wm2 root [ Event.Substructure_redirect ]

let test_configure_redirect () =
  let server, conn, root = fixture () in
  let wm = Server.connect server ~name:"wm" in
  Server.select_input server wm root [ Event.Substructure_redirect ];
  let w = new_win server conn root ~geom:(rect 0 0 50 50) in
  Server.move_resize server conn w (rect 5 5 80 80);
  check Alcotest.bool "geometry unchanged" true
    (Geom.rect_equal (Server.geometry server w) (rect 0 0 50 50));
  match Server.flush_batch wm with
  | [ Event.Configure_request { changes; _ } ] ->
      check (Alcotest.option Alcotest.int) "requested width" (Some 80) changes.cw
  | _ -> Alcotest.fail "expected ConfigureRequest"

let test_configure_notify_real () =
  let server, conn, root = fixture () in
  let w = new_win server conn root in
  Server.select_input server conn w [ Event.Structure_notify ];
  Server.move_resize server conn w (rect 7 8 90 91);
  match Server.flush_batch conn with
  | [ Event.Configure_notify { geom; synthetic; _ } ] ->
      check Alcotest.bool "geometry" true (Geom.rect_equal geom (rect 7 8 90 91));
      check Alcotest.bool "not synthetic" false synthetic
  | _ -> Alcotest.fail "expected ConfigureNotify"

let test_property_roundtrip_and_notify () =
  let server, conn, root = fixture () in
  let observer = Server.connect server ~name:"observer" in
  let w = new_win server conn root in
  Server.select_input server observer w [ Event.Property_change ];
  Server.change_property server conn w ~name:Prop.wm_name (Prop.String "hello");
  (match Server.get_property server w ~name:Prop.wm_name with
  | Some (Prop.String "hello") -> ()
  | _ -> Alcotest.fail "property value");
  Server.delete_property server conn w ~name:Prop.wm_name;
  check Alcotest.bool "deleted" true (Server.get_property server w ~name:Prop.wm_name = None);
  let events = Server.flush_batch observer in
  match events with
  | [ Event.Property_notify { deleted = false; _ }; Event.Property_notify { deleted = true; _ } ]
    -> ()
  | _ -> Alcotest.failf "expected 2 PropertyNotify, got %d" (List.length events)

let test_append_string_property () =
  let server, conn, root = fixture () in
  Server.append_string_property server conn root ~name:"X" "line1";
  Server.append_string_property server conn root ~name:"X" "line2";
  match Server.get_property server root ~name:"X" with
  | Some (Prop.String s) -> check Alcotest.string "appended" "line1\nline2" s
  | _ -> Alcotest.fail "missing"

(* -------- reparent and save-set -------- *)

let test_reparent () =
  let server, conn, root = fixture () in
  let a = new_win server conn root ~geom:(rect 10 10 50 50) in
  let b = new_win server conn root ~geom:(rect 100 100 80 80) in
  Server.map_window server conn a;
  Server.reparent_window server conn a ~new_parent:b ~pos:(Geom.point 5 5);
  check Alcotest.bool "new parent" true (Xid.equal (Server.parent_of server a) b);
  check Alcotest.bool "still mapped" true (Server.is_mapped server a);
  let g = Server.geometry server a in
  check Alcotest.int "x" 5 g.x;
  check Alcotest.int "size kept" 50 g.w

let test_save_set_rescues () =
  let server, client_conn, root = fixture () in
  let wm = Server.connect server ~name:"wm" in
  let cwin = new_win server client_conn root ~geom:(rect 30 40 50 50) in
  Server.map_window server client_conn cwin;
  (* WM frames the client. *)
  let frame = new_win server wm root ~geom:(rect 100 100 60 70) in
  Server.map_window server wm frame;
  Server.reparent_window server wm cwin ~new_parent:frame ~pos:(Geom.point 2 10);
  Server.add_to_save_set server wm cwin;
  (* WM dies: the client must come back to the root at its absolute spot. *)
  let abs_before = Server.root_geometry server cwin in
  Server.disconnect server wm;
  check Alcotest.bool "client survives" true (Server.window_exists server cwin);
  check Alcotest.bool "frame destroyed" false (Server.window_exists server frame);
  check Alcotest.bool "back on root" true (Xid.equal (Server.parent_of server cwin) root);
  check Alcotest.bool "mapped" true (Server.is_mapped server cwin);
  let g = Server.geometry server cwin in
  check Alcotest.int "abs x preserved" abs_before.x g.x;
  check Alcotest.int "abs y preserved" abs_before.y g.y

let test_disconnect_destroys_own () =
  let server, conn, root = fixture () in
  let w = new_win server conn root in
  Server.disconnect server conn;
  check Alcotest.bool "own window destroyed" false (Server.window_exists server w);
  ignore root

(* -------- pointer, input, grabs -------- *)

let test_window_at_pointer () =
  let server, conn, root = fixture () in
  let low = new_win server conn root ~geom:(rect 0 0 200 200) in
  let high = new_win server conn root ~geom:(rect 50 50 100 100) in
  Server.map_window server conn low;
  Server.map_window server conn high;
  Server.warp_pointer server ~screen:0 (Geom.point 60 60);
  check Alcotest.bool "topmost wins" true
    (Xid.equal (Server.window_at_pointer server) high);
  Server.warp_pointer server ~screen:0 (Geom.point 10 10);
  check Alcotest.bool "below region" true
    (Xid.equal (Server.window_at_pointer server) low);
  Server.warp_pointer server ~screen:0 (Geom.point 500 500);
  check Alcotest.bool "root fallback" true
    (Xid.equal (Server.window_at_pointer server) root)

let test_button_propagation () =
  let server, conn, root = fixture () in
  let outer = new_win server conn root ~geom:(rect 0 0 200 200) in
  let inner = new_win server conn outer ~geom:(rect 10 10 50 50) in
  Server.map_window server conn outer;
  Server.map_window server conn inner;
  (* Only the outer window selects for presses. *)
  Server.select_input server conn outer [ Event.Button_press_mask ];
  Server.warp_pointer server ~screen:0 (Geom.point 20 20);
  Server.press_button server 1;
  match
    List.filter
      (function Event.Button_press _ -> true | _ -> false)
      (Server.flush_batch conn)
  with
  | [ Event.Button_press { window; pos; _ } ] ->
      check Alcotest.bool "delivered to ancestor" true (Xid.equal window outer);
      check Alcotest.int "outer-relative x" 20 pos.px
  | events -> Alcotest.failf "expected 1 ButtonPress, got %d" (List.length events)

let test_shape_hit_test () =
  let server, conn, root = fixture () in
  let w = new_win server conn root ~geom:(rect 0 0 100 100) in
  Server.map_window server conn w;
  Server.shape_set server conn w (Region.disc ~cx:50 ~cy:50 ~r:40);
  Server.warp_pointer server ~screen:0 (Geom.point 50 50);
  check Alcotest.bool "inside disc" true (Xid.equal (Server.window_at_pointer server) w);
  Server.warp_pointer server ~screen:0 (Geom.point 3 3);
  check Alcotest.bool "shaped-out corner misses" true
    (Xid.equal (Server.window_at_pointer server) root)

let test_pointer_grab () =
  let server, conn, root = fixture () in
  let other = Server.connect server ~name:"other" in
  let w = new_win server conn root ~geom:(rect 0 0 50 50) in
  let v = new_win server other root ~geom:(rect 100 100 50 50) in
  Server.map_window server conn w;
  Server.map_window server other v;
  Server.select_input server other v [ Event.Button_press_mask ];
  Server.grab_pointer server conn w;
  Server.warp_pointer server ~screen:0 (Geom.point 110 110);
  Server.press_button server 1;
  check Alcotest.int "grab steals the event" 0
    (List.length
       (List.filter
          (function Event.Button_press _ -> true | _ -> false)
          (Server.flush_batch other)));
  (match
     List.filter
       (function Event.Button_press _ -> true | _ -> false)
       (Server.flush_batch conn)
   with
  | [ Event.Button_press { window; pos; _ } ] ->
      check Alcotest.bool "grab window" true (Xid.equal window w);
      check Alcotest.int "grab-window-relative" 110 pos.px
  | _ -> Alcotest.fail "grabber should get the press");
  Server.ungrab_pointer server conn;
  check Alcotest.bool "ungrabbed" false (Server.pointer_grabbed server)

let test_enter_leave () =
  let server, conn, root = fixture () in
  let w = new_win server conn root ~geom:(rect 0 0 50 50) in
  Server.map_window server conn w;
  Server.select_input server conn w [ Event.Enter_leave_mask ];
  Server.warp_pointer server ~screen:0 (Geom.point 400 400);
  ignore (Server.flush_batch conn);
  Server.warp_pointer server ~screen:0 (Geom.point 10 10);
  (match Server.flush_batch conn with
  | [ Event.Enter_notify { window } ] ->
      check Alcotest.bool "enter" true (Xid.equal window w)
  | events -> Alcotest.failf "expected Enter, got %d events" (List.length events));
  Server.warp_pointer server ~screen:0 (Geom.point 400 400);
  match Server.flush_batch conn with
  | [ Event.Leave_notify { window } ] ->
      check Alcotest.bool "leave" true (Xid.equal window w)
  | events -> Alcotest.failf "expected Leave, got %d events" (List.length events)

let test_crossing_chain () =
  (* Moving into a nested child generates Enter on every window down the
     chain; moving out generates Leaves bottom-up (X virtual crossings). *)
  let server, conn, root = fixture () in
  let outer = new_win server conn root ~geom:(rect 0 0 200 200) in
  let inner = new_win server conn outer ~geom:(rect 10 10 50 50) in
  Server.map_window server conn outer;
  Server.map_window server conn inner;
  Server.select_input server conn outer [ Event.Enter_leave_mask ];
  Server.select_input server conn inner [ Event.Enter_leave_mask ];
  Server.warp_pointer server ~screen:0 (Geom.point 500 500);
  ignore (Server.flush_batch conn);
  Server.warp_pointer server ~screen:0 (Geom.point 20 20);
  let entered =
    List.filter_map
      (function Event.Enter_notify { window } -> Some window | _ -> None)
      (Server.flush_batch conn)
  in
  check Alcotest.bool "outer then inner" true
    (List.map Xid.to_int entered = [ Xid.to_int outer; Xid.to_int inner ]);
  Server.warp_pointer server ~screen:0 (Geom.point 500 500);
  let left =
    List.filter_map
      (function Event.Leave_notify { window } -> Some window | _ -> None)
      (Server.flush_batch conn)
  in
  check Alcotest.bool "inner then outer" true
    (List.map Xid.to_int left = [ Xid.to_int inner; Xid.to_int outer ])

let test_key_press () =
  let server, conn, root = fixture () in
  let w = new_win server conn root ~geom:(rect 0 0 50 50) in
  Server.map_window server conn w;
  Server.select_input server conn w [ Event.Key_press_mask ];
  Server.warp_pointer server ~screen:0 (Geom.point 5 5);
  ignore (Server.flush_batch conn);
  Server.press_key server ~mods:(Swm_xlib.Keysym.mods ~shift:true ()) "Up";
  match Server.flush_batch conn with
  | [ Event.Key_press { keysym; mods; _ } ] ->
      check Alcotest.string "keysym" "Up" keysym;
      check Alcotest.bool "shift" true mods.shift
  | _ -> Alcotest.fail "expected KeyPress"

let test_focus_events () =
  let server, conn, root = fixture () in
  let a = new_win server conn root in
  let b = new_win server conn root in
  Server.select_input server conn a [ Event.Focus_change_mask ];
  Server.select_input server conn b [ Event.Focus_change_mask ];
  Server.set_input_focus server conn a;
  (match Server.flush_batch conn with
  | [ Event.Focus_in { window } ] ->
      check Alcotest.bool "focus in a" true (Xid.equal window a)
  | events -> Alcotest.failf "expected FocusIn, got %d events" (List.length events));
  Server.set_input_focus server conn b;
  (match Server.flush_batch conn with
  | [ Event.Focus_out { window = o }; Event.Focus_in { window = i } ] ->
      check Alcotest.bool "out of a, into b" true (Xid.equal o a && Xid.equal i b)
  | events -> Alcotest.failf "expected Out+In, got %d events" (List.length events));
  (* Re-focusing the same window is silent. *)
  Server.set_input_focus server conn b;
  check Alcotest.int "no duplicate events" 0 (Server.pending conn)

let test_multi_screen () =
  let server =
    Server.create
      ~screens:
        [ { Server.size = (800, 600); monochrome = false };
          { Server.size = (1024, 768); monochrome = true } ]
      ()
  in
  check Alcotest.int "two screens" 2 (Server.screen_count server);
  check Alcotest.bool "different roots" false
    (Xid.equal (Server.root server ~screen:0) (Server.root server ~screen:1));
  check Alcotest.bool "mono flag" true (Server.screen_monochrome server ~screen:1);
  let w, h = Server.screen_size server ~screen:1 in
  check Alcotest.int "width" 1024 w;
  check Alcotest.int "height" 768 h

let test_send_event () =
  let server, conn, root = fixture () in
  let client = Server.connect server ~name:"client" in
  let w = new_win server client root in
  Server.send_event server conn ~dest:w
    (Event.Configure_notify
       { window = w; geom = rect 1 2 3 4; border = 0; synthetic = true });
  match Server.flush_batch client with
  | [ Event.Configure_notify { synthetic = true; geom; _ } ] ->
      check Alcotest.int "x" 1 geom.x
  | _ -> Alcotest.fail "expected synthetic ConfigureNotify"

let test_atoms () =
  let server, _conn, _root = fixture () in
  let atoms = Swm_xlib.Server.atoms server in
  let a = Swm_xlib.Atom.intern atoms "WM_NAME" in
  let b = Swm_xlib.Atom.intern atoms "WM_NAME" in
  check Alcotest.bool "interning is stable" true (Swm_xlib.Atom.equal a b);
  check Alcotest.string "name back" "WM_NAME" (Swm_xlib.Atom.name atoms a);
  check Alcotest.bool "existing lookup" true
    (Swm_xlib.Atom.intern_existing atoms "WM_NAME" = Some a);
  check Alcotest.bool "missing lookup" true
    (Swm_xlib.Atom.intern_existing atoms "NOPE" = None)

(* -------- requests an X toolkit realizes with -------- *)

let test_create_with_event_mask () =
  let server, conn, root = fixture () in
  let r0 = Server.request_count server in
  let w =
    Server.create_window server conn ~parent:root ~geom:(rect 1 1 10 10)
      ~event_mask:[ Event.Exposure_mask; Event.Structure_notify ] ()
  in
  check Alcotest.int "one request" 1 (Server.request_count server - r0);
  check Alcotest.bool "selected in the create" true
    (Server.selected_masks server conn w = [ Event.Exposure_mask; Event.Structure_notify ]);
  Server.map_window server conn w;
  check Alcotest.int "the selection delivers" 2 (List.length (Server.flush_batch conn))

let test_map_subwindows () =
  let server, conn, root = fixture () in
  let parent = new_win server conn root in
  let a = new_win server conn parent in
  let b = new_win server conn parent in
  let c = new_win server conn parent in
  let observer = Server.connect server ~name:"observer" in
  Server.select_input server observer parent [ Event.Substructure_notify ];
  Server.map_window server conn b;
  ignore (Server.flush_batch observer);
  let r0 = Server.request_count server in
  Server.map_subwindows server conn parent;
  check Alcotest.int "one request" 1 (Server.request_count server - r0);
  let mapped =
    List.filter_map
      (function Event.Map_notify { window } -> Some (Xid.to_int window) | _ -> None)
      (Server.flush_batch observer)
  in
  check Alcotest.(list int) "unmapped children, top to bottom" [ Xid.to_int c; Xid.to_int a ] mapped;
  check Alcotest.bool "all mapped" true (List.for_all (Server.is_mapped server) [ a; b; c ]);
  check Alcotest.bool "the parent stays unmapped" false (Server.is_mapped server parent);
  (* Under another client's redirect each child is a MapRequest, in the
     same order, and stays unmapped. *)
  let parent2 = new_win server conn root in
  let d = new_win server conn parent2 in
  let e = new_win server conn parent2 in
  let wm = Server.connect server ~name:"wm" in
  Server.select_input server wm parent2 [ Event.Substructure_redirect ];
  Server.map_subwindows server conn parent2;
  let requested =
    List.filter_map
      (function Event.Map_request { window; _ } -> Some (Xid.to_int window) | _ -> None)
      (Server.flush_batch wm)
  in
  check Alcotest.(list int) "redirected, top to bottom" [ Xid.to_int e; Xid.to_int d ] requested;
  check Alcotest.bool "redirected children unmapped" false
    (Server.is_mapped server d || Server.is_mapped server e)

let test_win_gravity () =
  let server, conn, root = fixture () in
  let parent = new_win ~geom:(rect 0 0 100 80) server conn root in
  let child gravity =
    Server.create_window server conn ~parent ~geom:(rect 10 20 5 5) ?gravity ()
  in
  let gravities = Server.[ None; Some North_east; Some South_west; Some South_east ] in
  let children = List.map child gravities in
  let r0 = Server.request_count server in
  Server.move_resize server conn parent (rect 3 4 120 70);
  check Alcotest.int "the children move without a request" 1 (Server.request_count server - r0);
  let at w = let g = Server.geometry server w in (g.x, g.y) in
  check
    Alcotest.(list (pair int int))
    "each child keeps its corner (dw 20, dh -10)"
    [ (10, 20); (30, 20); (10, 10); (30, 10) ]
    (List.map at children);
  Server.move_resize server conn parent (rect 50 50 120 70);
  check Alcotest.(pair int int) "a move alone moves no child" (30, 10) (at (List.nth children 3))

(* -------- the indexed server against the list model -------- *)

module Model = Server_model

type sop =
  | Create of int * int * bool (* connection slot, parent, override-redirect *)
  | Create_selecting of int * int * Event.mask list (* masks in the create *)
  | Destroy of int
  | Reparent of int * int
  | Restack of int * int * Event.stack_mode * int * int
      (* connection, window, mode, sibling kind (none, a sibling, any window,
         itself), sibling pick *)
  | Map of int * int
  | Map_subwindows of int * int
  | Unmap of int * int
  | Select of int * int * Event.mask list
  | Save_add of int * int
  | Save_remove of int * int
  | Disconnect of int (* then a fresh connection takes the slot *)

let show_mask m = Format.asprintf "%a" Event.pp_mask m

let show_sop = function
  | Create (c, p, o) -> Printf.sprintf "create c%d under w%d%s" c p (if o then " override" else "")
  | Destroy w -> Printf.sprintf "destroy w%d" w
  | Reparent (w, p) -> Printf.sprintf "reparent w%d to w%d" w p
  | Restack (c, w, mode, kind, s) ->
      Printf.sprintf "c%d restack w%d %s %s" c w
        (match mode with Event.Above -> "above" | Event.Below -> "below")
        (match kind with
        | 0 -> "-"
        | 1 -> Printf.sprintf "sibling %d" s
        | 2 -> Printf.sprintf "window %d" s
        | _ -> "itself")
  | Create_selecting (c, p, masks) ->
      Printf.sprintf "create c%d under w%d selecting [%s]" c p
        (String.concat "," (List.map show_mask masks))
  | Map (c, w) -> Printf.sprintf "c%d map w%d" c w
  | Map_subwindows (c, w) -> Printf.sprintf "c%d map subwindows of w%d" c w
  | Unmap (c, w) -> Printf.sprintf "c%d unmap w%d" c w
  | Select (c, w, masks) ->
      Printf.sprintf "c%d select w%d [%s]" c w (String.concat "," (List.map show_mask masks))
  | Save_add (c, w) -> Printf.sprintf "c%d save-set add w%d" c w
  | Save_remove (c, w) -> Printf.sprintf "c%d save-set remove w%d" c w
  | Disconnect c -> Printf.sprintf "disconnect c%d" c

let sop_gen =
  let open QCheck2.Gen in
  let c = int_range 0 2 and w = int_range 0 63 in
  let masks =
    map
      (List.filter_map Fun.id)
      (flatten_l
         (List.map
            (fun m -> map (fun b -> if b then Some m else None) bool)
            Event.
              [ Substructure_redirect; Substructure_notify; Structure_notify; Exposure_mask;
                Button_press_mask ]))
  in
  frequency
    [
      (6, map3 (fun c p o -> Create (c, p, o)) c w (frequencyl [ (4, false); (1, true) ]));
      (2, map (fun w -> Destroy w) w);
      (3, map2 (fun w p -> Reparent (w, p)) w w);
      ( 4,
        map
          (fun (c, w, above, kind, s) ->
            Restack (c, w, (if above then Event.Above else Event.Below), kind, s))
          (tup5 c w bool (int_range 0 3) w) );
      (2, map3 (fun c p m -> Create_selecting (c, p, m)) c w masks);
      (3, map2 (fun c w -> Map (c, w)) c w);
      (2, map2 (fun c w -> Map_subwindows (c, w)) c w);
      (2, map2 (fun c w -> Unmap (c, w)) c w);
      (3, map3 (fun c w m -> Select (c, w, m)) c w masks);
      (2, map2 (fun c w -> Save_add (c, w)) c w);
      (1, map2 (fun c w -> Save_remove (c, w)) c w);
      (1, map (fun c -> Disconnect c) c);
    ]

let prop_indexed_matches_list_model =
  QCheck2.Test.make ~name:"indexed server matches the list model" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_sop ops))
    QCheck2.Gen.(list_size (int_range 1 80) sop_gen)
    (fun ops ->
      let server = Server.create () in
      let root = Server.root server ~screen:0 in
      (* Model cids start at 1: 0 stands for the roots' owner. *)
      let observer = Server.connect server ~name:"observer" in
      Server.set_coalesce observer false;
      Server.select_input server observer root [ Event.Substructure_notify ];
      let m = Model.create ~root ~observer:1 in
      Model.select_input m ~cid:1 root [ Event.Substructure_notify ];
      let conns = ref [ (1, observer) ] in
      let next_cid = ref 2 in
      let connect () =
        let cid = !next_cid in
        incr next_cid;
        let conn = Server.connect server ~name:(Printf.sprintf "c%d" cid) in
        conns := (cid, conn) :: !conns;
        (cid, conn)
      in
      let slots = Array.init 3 (fun _ -> connect ()) in
      let pick i = function [] -> None | l -> Some (List.nth l (i mod List.length l)) in
      let windows () = Model.windows m in
      let non_root () = List.filter (fun w -> not (Xid.equal w root)) (windows ()) in
      let outcome f = try f (); "ok" with Server.Bad_access _ | Model.Bad_access -> "BadAccess" in
      let both fs fm =
        let a = outcome fs and b = outcome fm in
        if a <> b then Some (Printf.sprintf "server %s, model %s" a b) else None
      in
      let apply = function
        | Create (c, p, override_redirect) ->
            let cid, conn = slots.(c) in
            Option.bind (pick p (windows ())) (fun parent ->
                let id =
                  Server.create_window server conn ~parent ~geom:(Geom.rect 1 1 5 5)
                    ~override_redirect ()
                in
                Model.create_window m ~cid ~parent ~override:override_redirect id;
                None)
        | Create_selecting (c, p, masks) ->
            let cid, conn = slots.(c) in
            Option.bind (pick p (windows ())) (fun parent ->
                let id =
                  Server.create_window server conn ~parent ~geom:(Geom.rect 1 1 5 5)
                    ~event_mask:masks ()
                in
                Model.create_window m ~cid ~parent ~override:false id;
                Model.select_input m ~cid id masks;
                None)
        | Destroy w ->
            Option.bind (pick w (non_root ())) (fun id ->
                both (fun () -> Server.destroy_window server id) (fun () -> Model.destroy m id))
        | Reparent (w, p) ->
            Option.bind (pick w (non_root ())) (fun id ->
                Option.bind (pick p (windows ())) (fun new_parent ->
                    both
                      (fun () ->
                        Server.reparent_window server (snd slots.(0)) id ~new_parent
                          ~pos:(Geom.point 2 3))
                      (fun () -> Model.reparent m id ~new_parent)))
        | Restack (c, w, mode, kind, s) ->
            let cid, conn = slots.(c) in
            Option.bind (pick w (windows ())) (fun id ->
                let sibling =
                  match kind with
                  | 0 -> None
                  | 1 -> (
                      let p = Model.parent m id in
                      if Xid.is_none p then Some id
                      else
                        match pick s (Model.without id (Model.children m p)) with
                        | Some sib -> Some sib
                        | None -> Some id)
                  | 2 -> pick s (windows ())
                  | _ -> Some id
                in
                both
                  (fun () ->
                    Server.configure_window server conn id
                      { Event.no_changes with cstack = Some mode; csibling = sibling })
                  (fun () -> Model.restack m ~cid id mode sibling))
        | Map (c, w) ->
            let cid, conn = slots.(c) in
            Option.bind (pick w (windows ())) (fun id ->
                both (fun () -> Server.map_window server conn id) (fun () -> Model.map_window m ~cid id))
        | Map_subwindows (c, w) ->
            let cid, conn = slots.(c) in
            Option.bind (pick w (windows ())) (fun id ->
                both
                  (fun () -> Server.map_subwindows server conn id)
                  (fun () -> Model.map_subwindows m ~cid id))
        | Unmap (c, w) ->
            Option.bind (pick w (windows ())) (fun id ->
                both
                  (fun () -> Server.unmap_window server (snd slots.(c)) id)
                  (fun () -> Model.unmap_window m id))
        | Select (c, w, masks) ->
            let cid, conn = slots.(c) in
            Option.bind (pick w (windows ())) (fun id ->
                both
                  (fun () -> Server.select_input server conn id masks)
                  (fun () -> Model.select_input m ~cid id masks))
        | Save_add (c, w) ->
            let cid, conn = slots.(c) in
            Option.bind (pick w (windows ())) (fun id ->
                both
                  (fun () -> Server.add_to_save_set server conn id)
                  (fun () -> Model.add_to_save_set m ~cid id))
        | Save_remove (c, w) ->
            let cid, conn = slots.(c) in
            Option.bind (pick w (windows ())) (fun id ->
                both
                  (fun () -> Server.remove_from_save_set server conn id)
                  (fun () -> Model.remove_from_save_set m ~cid id))
        | Disconnect c ->
            let cid, conn = slots.(c) in
            let v0 = Server.disconnect_visits server in
            let want = ref 0 in
            let r =
              both
                (fun () -> Server.disconnect server conn)
                (fun () -> want := Model.disconnect m ~cid ~root)
            in
            slots.(c) <- connect ();
            let got = Server.disconnect_visits server - v0 in
            if r = None && got <> !want then
              Some (Printf.sprintf "disconnect examined %d entries, model holds %d" got !want)
            else r
      in
      let ints l = String.concat " " (List.map (fun w -> string_of_int (Xid.to_int w)) l) in
      (* The children read top down through the O(1) queries, bottom to top. *)
      let top_down id =
        let rec down w acc = if Xid.is_none w then acc else down (Server.below_sibling server w) (w :: acc) in
        down (Server.top_child server id) []
      in
      let compare_state () =
        let ws = windows () in
        let sws = List.sort Xid.compare (Server.all_windows server) in
        if sws <> ws then Some (Printf.sprintf "windows: server [%s], model [%s]" (ints sws) (ints ws))
        else
          List.find_map
            (fun id ->
              let sp = Server.parent_of server id and mp = Model.parent m id in
              let sc = Server.children_of server id and mc = Model.children m id in
              if sp <> mp then Some (Printf.sprintf "parent of %s: server %s, model %s" (ints [ id ]) (ints [ sp ]) (ints [ mp ]))
              else if sc <> mc then
                Some (Printf.sprintf "children of %s: server [%s], model [%s]" (ints [ id ]) (ints sc) (ints mc))
              else if top_down id <> mc then
                Some
                  (Printf.sprintf "top_child/below_sibling of %s: [%s], model [%s]" (ints [ id ])
                     (ints (top_down id)) (ints mc))
              else
                List.find_map
                  (fun (cid, conn) ->
                    let s = Server.selected_masks server conn id and ms = Model.selected m ~cid id in
                    if s <> ms then
                      Some
                        (Printf.sprintf "c%d's masks on %s: server [%s], model [%s]" cid (ints [ id ])
                           (String.concat "," (List.map show_mask s))
                           (String.concat "," (List.map show_mask ms)))
                    else None)
                  !conns)
            ws
      in
      let compare_events () =
        let se = List.map Model.show_event (Server.flush_batch observer) in
        let me = Model.take_events m in
        if se <> me then
          Some
            (Printf.sprintf "observer events: server [%s], model [%s]" (String.concat "; " se)
               (String.concat "; " me))
        else None
      in
      List.iteri
        (fun n op ->
          let fail e = QCheck2.Test.fail_reportf "op %d (%s): %s" n (show_sop op) e in
          Option.iter fail (apply op);
          Option.iter fail (compare_events ());
          Option.iter fail (compare_state ()))
        ops;
      true)

let suite =
  [
    Alcotest.test_case "create and destroy" `Quick test_create_destroy;
    Alcotest.test_case "destroy is recursive" `Quick test_destroy_recursive;
    Alcotest.test_case "cannot destroy root" `Quick test_destroy_root_rejected;
    Alcotest.test_case "stacking raise/lower" `Quick test_stacking;
    Alcotest.test_case "coordinate translation" `Quick test_translate_coordinates;
    Alcotest.test_case "viewability" `Quick test_viewable;
    Alcotest.test_case "MapNotify delivery" `Quick test_map_notify_delivery;
    Alcotest.test_case "SubstructureNotify on parent" `Quick test_substructure_notify;
    Alcotest.test_case "redirect intercepts map" `Quick test_redirect_intercepts_map;
    Alcotest.test_case "override-redirect bypasses" `Quick test_redirect_override;
    Alcotest.test_case "redirect is exclusive" `Quick test_redirect_exclusive;
    Alcotest.test_case "redirect intercepts configure" `Quick test_configure_redirect;
    Alcotest.test_case "real ConfigureNotify" `Quick test_configure_notify_real;
    Alcotest.test_case "property change + notify" `Quick test_property_roundtrip_and_notify;
    Alcotest.test_case "append string property" `Quick test_append_string_property;
    Alcotest.test_case "reparent keeps map state" `Quick test_reparent;
    Alcotest.test_case "save-set rescue on disconnect" `Quick test_save_set_rescues;
    Alcotest.test_case "disconnect destroys own windows" `Quick test_disconnect_destroys_own;
    Alcotest.test_case "window_at_pointer stacking" `Quick test_window_at_pointer;
    Alcotest.test_case "button event propagation" `Quick test_button_propagation;
    Alcotest.test_case "shape-aware hit test" `Quick test_shape_hit_test;
    Alcotest.test_case "pointer grab" `Quick test_pointer_grab;
    Alcotest.test_case "enter/leave crossing" `Quick test_enter_leave;
    Alcotest.test_case "crossing ancestor chain" `Quick test_crossing_chain;
    Alcotest.test_case "key press with modifiers" `Quick test_key_press;
    Alcotest.test_case "focus events" `Quick test_focus_events;
    Alcotest.test_case "multiple screens" `Quick test_multi_screen;
    Alcotest.test_case "send_event" `Quick test_send_event;
    Alcotest.test_case "atom interning" `Quick test_atoms;
    Alcotest.test_case "create with an event mask" `Quick test_create_with_event_mask;
    Alcotest.test_case "MapSubwindows" `Quick test_map_subwindows;
    Alcotest.test_case "win-gravity" `Quick test_win_gravity;
    QCheck_alcotest.to_alcotest prop_indexed_matches_list_model;
  ]
