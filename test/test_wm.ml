module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

(* A fixture without virtual desktop / panner noise unless asked for. *)
let plain_resources =
  [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]

let fixture ?(resources = plain_resources) () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  (server, wm)

let managed_client wm app =
  match Wm.find_client wm (Client_app.window app) with
  | Some client -> client
  | None -> Alcotest.fail "client not managed"

let test_map_request_manages () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 50 60) () in
  check Alcotest.bool "not yet mapped (redirect)" false
    (Server.is_mapped server (Client_app.window app));
  ignore (Wm.step wm);
  let client = managed_client wm app in
  check Alcotest.bool "mapped after manage" true
    (Server.is_mapped server (Client_app.window app));
  check Alcotest.bool "frame differs from client" false
    (Xid.equal client.Ctx.frame client.Ctx.cwin);
  check Alcotest.bool "frame viewable" true (Server.is_viewable server client.Ctx.frame);
  check Alcotest.bool "client viewable" true
    (Server.is_viewable server client.Ctx.cwin)

let test_decoration_structure () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 50 60) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  (* The client window must be inside the frame subtree. *)
  let rec ancestor_of win target =
    (not (Xid.is_none target))
    && (Xid.equal win target
       || ((not (Xid.is_none (Server.parent_of server target)))
          && ancestor_of win (Server.parent_of server target)))
  in
  check Alcotest.bool "client under frame" true
    (ancestor_of client.Ctx.frame client.Ctx.cwin);
  (* OpenLook decoration: name object shows WM_NAME. *)
  match client.Ctx.deco with
  | Some deco -> (
      match Swm_oi.Wobj.find_descendant deco ~name:"name" with
      | Some name_obj ->
          check Alcotest.string "title label" "xterm" (Swm_oi.Wobj.label name_obj)
      | None -> Alcotest.fail "no name object")
  | None -> Alcotest.fail "no decoration"

let test_wm_state_set () =
  let server, wm = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  match Server.get_property server (Client_app.window app) ~name:Prop.wm_state_name with
  | Some (Prop.Wm_state_value { state = Prop.Normal; _ }) -> ()
  | _ -> Alcotest.fail "WM_STATE should be NormalState"

let test_usposition_honoured () =
  let server, wm = fixture () in
  let app =
    Client_app.launch server
      (Client_app.spec ~instance:"placed" ~us_position:true (Geom.rect 123 234 50 50))
  in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let fgeom = Server.geometry server client.Ctx.frame in
  check Alcotest.int "frame x from USPosition" 123 fgeom.x;
  check Alcotest.int "frame y from USPosition" 234 fgeom.y

let test_configure_request_resizes () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 10 10) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let frame_before = Server.geometry server client.Ctx.frame in
  Client_app.resize_self app (600, 400);
  ignore (Wm.step wm);
  let cgeom = Server.geometry server client.Ctx.cwin in
  check Alcotest.int "client width" 600 cgeom.w;
  check Alcotest.int "client height" 400 cgeom.h;
  let frame_after = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "frame grew" true
    (frame_after.w > frame_before.w && frame_after.h > frame_before.h);
  (* And the client got a synthetic ConfigureNotify. *)
  ignore (Client_app.process_events app);
  check Alcotest.bool "client knows its position" true
    (Client_app.believed_position app <> None)

(* The decoration's relayout resizes the frame without re-sending the
   position it was built at: a size-only ConfigureRequest or a retitle
   that widens the title bar must leave a moved frame where it is. *)
let test_moved_frame_stays_put () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 60 80) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  Swm_core.Decoration.move_frame (Wm.ctx wm) client (Geom.point 300 200);
  let stays what =
    let g = Server.geometry server client.Ctx.frame in
    check Alcotest.(pair int int) what (300, 200) (g.x, g.y)
  in
  stays "moved";
  let width_before = (Server.geometry server client.Ctx.frame).w in
  Client_app.resize_self app (600, 400);
  ignore (Wm.step wm);
  stays "after a size-only ConfigureRequest";
  check Alcotest.bool "the frame did resize" true
    ((Server.geometry server client.Ctx.frame).w > width_before);
  Client_app.set_name app (String.make 120 'w');
  ignore (Wm.step wm);
  stays "after a retitle"

let test_name_change_updates_title () =
  let server, wm = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  Client_app.set_name app "new title";
  ignore (Wm.step wm);
  match client.Ctx.deco with
  | Some deco ->
      let name_obj = Option.get (Swm_oi.Wobj.find_descendant deco ~name:"name") in
      check Alcotest.string "updated" "new title" (Swm_oi.Wobj.label name_obj)
  | None -> Alcotest.fail "no decoration"

let test_withdraw_unmanages () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 40 50) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let frame = client.Ctx.frame in
  Client_app.withdraw app;
  ignore (Wm.step wm);
  check Alcotest.bool "no longer managed" true
    (Wm.find_client wm (Client_app.window app) = None);
  check Alcotest.bool "frame destroyed" false (Server.window_exists server frame);
  check Alcotest.bool "client survives on root" true
    (Server.window_exists server (Client_app.window app));
  check Alcotest.bool "client back on root" true
    (Xid.equal
       (Server.parent_of server (Client_app.window app))
       (Server.root server ~screen:0))

let test_destroy_unmanages () =
  let server, wm = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let frame = client.Ctx.frame in
  Client_app.destroy app;
  ignore (Wm.step wm);
  check Alcotest.bool "unmanaged" true (Wm.find_client wm (Client_app.window app) = None);
  check Alcotest.bool "frame destroyed" false (Server.window_exists server frame)

let test_shutdown_restores_clients () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 77 88) () in
  ignore (Wm.step wm);
  let abs_before = Server.root_geometry server (Client_app.window app) in
  Wm.shutdown wm;
  let win = Client_app.window app in
  check Alcotest.bool "client survives" true (Server.window_exists server win);
  check Alcotest.bool "on the root" true
    (Xid.equal (Server.parent_of server win) (Server.root server ~screen:0));
  check Alcotest.bool "mapped" true (Server.is_mapped server win);
  let g = Server.geometry server win in
  check Alcotest.int "absolute x kept" abs_before.x g.x;
  (* A second WM can now start and re-manage. *)
  let wm2 = Wm.start ~resources:plain_resources server in
  check Alcotest.bool "re-managed" true (Wm.find_client wm2 win <> None)

let test_second_wm_rejected () =
  let server, _wm = fixture () in
  Alcotest.check_raises "another WM is running"
    (Server.Bad_access "SubstructureRedirect on 0x1 already held by swm") (fun () ->
      ignore (Wm.start ~resources:plain_resources server))

let test_existing_windows_adopted () =
  let server = Server.create () in
  (* Client maps before the WM starts; with no redirect, map succeeds. *)
  let app = Stock.xterm server ~at:(Geom.point 5 5) () in
  check Alcotest.bool "mapped pre-WM" true
    (Server.is_mapped server (Client_app.window app));
  let wm = Wm.start ~resources:plain_resources server in
  check Alcotest.bool "adopted at startup" true
    (Wm.find_client wm (Client_app.window app) <> None)

let test_override_redirect_ignored () =
  let server, wm = fixture () in
  let conn = Server.connect server ~name:"popup" in
  let w =
    Server.create_window server conn
      ~parent:(Server.root server ~screen:0)
      ~geom:(Geom.rect 0 0 10 10) ~override_redirect:true ()
  in
  Server.map_window server conn w;
  ignore (Wm.step wm);
  check Alcotest.bool "not managed" true (Wm.find_client wm w = None)

let test_motif_template () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.motif ] server in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  match client.Ctx.deco with
  | Some deco ->
      check Alcotest.bool "motif sysmenu present" true
        (Swm_oi.Wobj.find_descendant deco ~name:"sysmenu" <> None);
      check Alcotest.bool "maximize present" true
        (Swm_oi.Wobj.find_descendant deco ~name:"maximize" <> None)
  | None -> Alcotest.fail "no decoration"

let test_twm_emulation_template () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.twm_emulation ] server in
  let app = Stock.xterm server ~at:(Geom.point 40 40) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let deco = Option.get client.Ctx.deco in
  check Alcotest.string "twm bar" "twmBar" (Swm_oi.Wobj.name deco);
  (* The iconify button carries the xlogo32 image glyph. *)
  let ic = Option.get (Swm_oi.Wobj.find_descendant deco ~name:"twmIconify") in
  check Alcotest.bool "image button" true
    (Server.art_of server (Swm_oi.Wobj.window ic) <> None);
  (* Clicking it iconifies. *)
  let abs = Server.root_geometry server (Swm_oi.Wobj.window ic) in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2) (abs.y + 2));
  Server.press_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "iconified" true (client.Ctx.state = Swm_xlib.Prop.Iconic)

let test_redecorate_idempotent () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 50 60) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let before = Server.geometry server client.Ctx.frame in
  for _ = 1 to 3 do
    Swm_core.Decoration.redecorate (Wm.ctx wm) client;
    ignore (Wm.step wm)
  done;
  let after = Server.geometry server client.Ctx.frame in
  check Alcotest.bool "frame geometry stable across redecorates" true
    (Geom.rect_equal before after);
  check Alcotest.bool "client still inside and viewable" true
    (Server.is_viewable server client.Ctx.cwin)

let test_no_decoration_resource () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look;
          "swm*virtualDesktop: False\nswm*rootPanels:\nswm*XTerm*decoration: none\n" ]
      server
  in
  let app = Stock.xterm server ~at:(Geom.point 30 40) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  check Alcotest.bool "undecorated: frame is the client" true
    (Xid.equal client.Ctx.frame client.Ctx.cwin);
  check Alcotest.bool "still managed and mapped" true
    (Server.is_mapped server client.Ctx.cwin)

let test_shaped_client_gets_shaped_decoration () =
  let server, wm = fixture () in
  let app = Stock.oclock server ~at:(Geom.point 50 50) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  check Alcotest.bool "client flagged shaped" true client.Ctx.shaped;
  (* The shapeit decoration panel shapes the frame to the client. *)
  check Alcotest.bool "frame shaped" true (Server.is_shaped server client.Ctx.frame)

let test_root_panel_is_client () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let ctx = Wm.ctx wm in
  let scr = Ctx.screen ctx 0 in
  match scr.Ctx.root_panels with
  | panel :: _ ->
      let win = Swm_oi.Wobj.window panel in
      (match Wm.find_client wm win with
      | Some client ->
          check Alcotest.bool "root panel reparented (managed)" true
            (not (Xid.equal client.Ctx.frame win));
          check Alcotest.bool "root panel sticky" true client.Ctx.sticky
      | None -> Alcotest.fail "root panel not managed")
  | [] -> Alcotest.fail "no root panel"

(* The WM's toolkit windows select no Exposure: the server keeps what
   each one shows, so nothing in the WM repaints on Expose.  Damaging
   every window of a decoration queues nothing, while a client that
   selects Exposure on its own window still gets its damage, merged. *)
let test_toolkit_windows_get_no_expose () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 50 60) () in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  let conn = Client_app.conn app and win = Client_app.window app in
  Server.select_input server conn win [ Event.Structure_notify; Event.Exposure_mask ];
  ignore (Server.flush_batch conn);
  let rec decoration w =
    if Xid.equal w win then [] else w :: List.concat_map decoration (Server.children_of server w)
  in
  let windows = decoration client.Ctx.frame in
  check Alcotest.bool "an OpenLook decoration has many windows" true (List.length windows > 5);
  let enqueued () = (Server.ledger_counts server).lc_enqueued in
  let e0 = enqueued () in
  List.iter (fun w -> Server.damage_window server w (Geom.rect 0 0 4 4)) windows;
  check Alcotest.int "no event queued for the decoration" e0 (enqueued ());
  check Alcotest.int "nothing pending for the WM" 0 (Server.pending (Wm.ctx wm).Ctx.conn);
  let coalesced () = (Server.ledger_counts server).lc_coalesced in
  let c0 = coalesced () in
  Server.damage_window server win (Geom.rect 0 0 10 10);
  Server.damage_window server win (Geom.rect 5 5 10 10);
  check Alcotest.int "the client's two damages merged" (c0 + 1) (coalesced ());
  let damage =
    List.map
      (function
        | Event.Expose { window; damage = Some r } when Xid.equal window win -> r
        | e -> Alcotest.failf "unexpected %s" (Event.kind_name e))
      (Server.flush_batch conn)
  in
  check Alcotest.int "the client is exposed over the union" 175
    (Swm_xlib.Region.area (Swm_xlib.Region.of_rects damage))

(* Mapping a window builds its Expose only for a connection that selects
   Exposure there: managing an OpenLook client maps a decoration of many
   toolkit windows and queues no Expose for the WM, while the client
   window, which selects Exposure, is exposed once it is mapped. *)
let test_mapped_decoration_queues_no_expose () =
  let server, wm = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 50 60) () in
  let conn = Client_app.conn app and win = Client_app.window app in
  Server.select_input server conn win [ Event.Structure_notify; Event.Exposure_mask ];
  ignore (Server.flush_batch conn);
  let dispatched_expose =
    Swm_xlib.Metrics.labeled_counter
      (Swm_xlib.Metrics.counter_family (Server.metrics server) ~key:"event"
         "wm.dispatch.events")
      "Expose"
  in
  let e0 = Swm_xlib.Metrics.value dispatched_expose in
  ignore (Wm.step wm);
  let client = managed_client wm app in
  check Alcotest.bool "the decoration was mapped" true
    (Server.is_mapped server client.Ctx.frame
    && List.length (Server.children_of server client.Ctx.frame) > 1);
  check Alcotest.int "the WM read no Expose" e0 (Swm_xlib.Metrics.value dispatched_expose);
  check Alcotest.int "nothing pending for the WM" 0 (Server.pending (Wm.ctx wm).Ctx.conn);
  check Alcotest.bool "the client window got its Expose" true
    (List.exists
       (function Event.Expose { window; _ } -> Xid.equal window win | _ -> false)
       (Server.flush_batch conn))

let suite =
  [
    Alcotest.test_case "MapRequest manages and maps" `Quick test_map_request_manages;
    Alcotest.test_case "decoration structure" `Quick test_decoration_structure;
    Alcotest.test_case "WM_STATE maintained" `Quick test_wm_state_set;
    Alcotest.test_case "USPosition honoured" `Quick test_usposition_honoured;
    Alcotest.test_case "ConfigureRequest resize" `Quick test_configure_request_resizes;
    Alcotest.test_case "moved frame stays put on resize and retitle" `Quick
      test_moved_frame_stays_put;
    Alcotest.test_case "WM_NAME updates title" `Quick test_name_change_updates_title;
    Alcotest.test_case "withdraw unmanages" `Quick test_withdraw_unmanages;
    Alcotest.test_case "destroy unmanages" `Quick test_destroy_unmanages;
    Alcotest.test_case "shutdown restores clients" `Quick test_shutdown_restores_clients;
    Alcotest.test_case "second WM rejected" `Quick test_second_wm_rejected;
    Alcotest.test_case "pre-existing windows adopted" `Quick test_existing_windows_adopted;
    Alcotest.test_case "override-redirect ignored" `Quick test_override_redirect_ignored;
    Alcotest.test_case "Motif template decorates" `Quick test_motif_template;
    Alcotest.test_case "Twm emulation template" `Quick test_twm_emulation_template;
    Alcotest.test_case "redecorate is idempotent" `Quick test_redecorate_idempotent;
    Alcotest.test_case "decoration: none" `Quick test_no_decoration_resource;
    Alcotest.test_case "shaped decoration for shaped client" `Quick
      test_shaped_client_gets_shaped_decoration;
    Alcotest.test_case "root panels are managed clients" `Quick test_root_panel_is_client;
    Alcotest.test_case "toolkit windows get no Expose" `Quick
      test_toolkit_windows_get_no_expose;
    Alcotest.test_case "a mapped decoration queues no Expose" `Quick
      test_mapped_decoration_queues_no_expose;
  ]
