(* Cross-cutting coverage: per-screen virtual desktops, panner stacking,
   places-file output on disk, WM_COMMAND as an argv list, and the wm_state
   string conversions. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Panner = Swm_core.Panner
module Functions = Swm_core.Functions
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

let test_per_screen_virtual_desktops () =
  let server =
    Server.create
      ~screens:
        [ { Server.size = (1152, 900); monochrome = false };
          { Server.size = (1024, 768); monochrome = false } ]
      ()
  in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look;
          "swm*rootPanels:\nswm*panner: False\n\
           swm.color.screen1.desktopSize: 2048x1536\n" ]
      server
  in
  let ctx = Wm.ctx wm in
  (* Both screens got desktops, with their own sizes. *)
  (match ((Ctx.screen ctx 0).Ctx.vdesk, (Ctx.screen ctx 1).Ctx.vdesk) with
  | Some v0, Some v1 ->
      check Alcotest.bool "screen0 default size" true (v0.Ctx.vsize = (3456, 2700));
      check Alcotest.bool "screen1 specific size" true (v1.Ctx.vsize = (2048, 1536))
  | _ -> Alcotest.fail "expected desktops on both screens");
  (* Panning one screen leaves the other alone. *)
  Vdesk.pan_to ctx ~screen:0 (Geom.point 500 400);
  check Alcotest.bool "screen0 panned" true
    (Vdesk.offset ctx ~screen:0 = Geom.point 500 400);
  check Alcotest.bool "screen1 untouched" true
    (Vdesk.offset ctx ~screen:1 = Geom.point 0 0)

let test_panner_mirrors_stacking () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  let ctx = Wm.ctx wm in
  (* Two overlapping clients; raise the first; the panner's miniatures must
     stack the same way. *)
  let a = Stock.xterm server ~at:(Geom.point 100 100) () in
  let b = Stock.xterm server ~at:(Geom.point 150 150) ~instance:"x2" () in
  ignore (Wm.step wm);
  let ca = Option.get (Wm.find_client wm (Client_app.window a)) in
  let cb = Option.get (Wm.find_client wm (Client_app.window b)) in
  Functions.execute ctx
    (Functions.invocation ~client:ca ~screen:0 ())
    [ { Swm_core.Bindings.fname = "f.raise"; farg = None } ];
  ignore (Wm.step wm);
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  let minis =
    List.filter_map
      (fun w -> Panner.client_of_miniature ctx w)
      (Server.children_of server vdesk.Ctx.panner_client)
  in
  (* children_of is bottom-to-top: b's miniature below a's. *)
  let order = List.map (fun (c : Ctx.client) -> c.Ctx.instance) minis in
  check (Alcotest.list Alcotest.string) "panner stacking mirrors desktop"
    [ cb.Ctx.instance; ca.Ctx.instance ]
    order

let test_places_file_written_to_disk () =
  let path = Filename.temp_file "swm_places" ".sh" in
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look;
          "swm*virtualDesktop: False\nswm*rootPanels:\nswm*placesFile: " ^ path ^ "\n" ]
      server
  in
  let ctx = Wm.ctx wm in
  let _app = Stock.xterm server ~at:(Geom.point 15 25) () in
  ignore (Wm.step wm);
  Functions.execute ctx
    (Functions.invocation ~screen:0 ())
    [ { Swm_core.Bindings.fname = "f.places"; farg = None } ];
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  check Alcotest.bool "file written" true
    (Astring_contains.contains content "swmhints -geometry");
  check Alcotest.bool "matches in-memory copy" true
    (Some content = ctx.Ctx.last_places)

let test_wm_command_argv_list () =
  (* Clients that set WM_COMMAND as an argv list (the other ICCCM form). *)
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:[ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]
      server
  in
  let conn = Server.connect server ~name:"argv" in
  let win =
    Server.create_window server conn
      ~parent:(Server.root server ~screen:0)
      ~geom:(Geom.rect 5 5 80 60) ()
  in
  Server.change_property server conn win ~name:Prop.wm_command
    (Prop.String_list [ "xeyes"; "-geometry"; "160x100" ]);
  Server.map_window server conn win;
  ignore (Wm.step wm);
  let hints = Functions.places_hints (Wm.ctx wm) in
  check Alcotest.bool "argv joined into the command string" true
    (List.exists
       (fun h -> h.Swm_core.Session.command = "xeyes -geometry 160x100")
       hints)

let test_wm_state_strings () =
  List.iter
    (fun state ->
      check Alcotest.bool "roundtrip" true
        (Prop.wm_state_of_string (Prop.wm_state_to_string state) = Some state))
    [ Prop.Withdrawn; Prop.Normal; Prop.Iconic ];
  check Alcotest.bool "garbage rejected" true (Prop.wm_state_of_string "Nope" = None)

let suite =
  [
    Alcotest.test_case "per-screen virtual desktops" `Quick
      test_per_screen_virtual_desktops;
    Alcotest.test_case "panner mirrors stacking" `Quick test_panner_mirrors_stacking;
    Alcotest.test_case "placesFile written to disk" `Quick
      test_places_file_written_to_disk;
    Alcotest.test_case "WM_COMMAND argv list" `Quick test_wm_command_argv_list;
    Alcotest.test_case "wm_state string conversions" `Quick test_wm_state_strings;
  ]
