(* A "rooms" environment on the Virtual Desktop (paper §6): group windows
   into quadrants of a 2x2 desktop — mail room, code room, docs room, build
   room — pan between them with window-manager functions, and keep a sticky
   clock and mail notifier visible everywhere, exactly the standard
   environment the paper describes.

     dune exec examples/virtual_rooms.exe *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Functions = Swm_core.Functions
module Templates = Swm_core.Templates
module Stock = Swm_clients.Stock
module Client_app = Swm_clients.Client_app

let rooms_resources =
  (* The whole "rooms" policy is resource text: a 2x2-screen desktop, keys
     that pan a full screen at a time, sticky classes. *)
  {|
swm*desktopSize: 2304x1800
swm*root.bindings: \
    <Key>F1 : f.panTo(0,0) \
    <Key>F2 : f.panTo(1152,0) \
    <Key>F3 : f.panTo(0,900) \
    <Key>F4 : f.panTo(1152,900)
swm*XClock*sticky: True
swm*XBiff*sticky: True
|}

let () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; rooms_resources ] server in
  let ctx = Wm.ctx wm in

  (* Populate the rooms. *)
  let room_x room = if room mod 2 = 0 then 60 else 1152 + 60 in
  let room_y room = if room < 2 then 80 else 900 + 80 in
  let launch room instance =
    Client_app.launch server
      (Client_app.spec ~instance ~class_:"XTerm" ~us_position:true
         (Geom.rect (room_x room) (room_y room) 484 316))
  in
  let _mail = launch 0 "mail" in
  let _code = launch 1 "code" in
  let _docs = launch 2 "docs" in
  let _build = launch 3 "build" in
  let _clock = Stock.xclock server ~at:(Geom.point 1040 8) () in
  let _biff = Stock.xbiff server ~at:(Geom.point 980 8) () in
  ignore (Wm.step wm);

  let visible_clients () =
    List.filter_map
      (fun (c : Ctx.client) ->
        if Server.is_viewable server c.Ctx.cwin then
          let abs = Server.root_geometry server c.Ctx.frame in
          let sw, sh = Server.screen_size server ~screen:0 in
          if abs.x < sw && abs.y < sh && abs.x + abs.w > 0 && abs.y + abs.h > 0 then
            Some c.Ctx.instance
          else None
        else None)
      (Ctx.all_clients ctx)
    |> List.sort compare
  in

  let press_key key =
    Server.press_key server key;
    ignore (Wm.step wm)
  in

  Format.printf "desktop: %dx%d, viewport %dx%d@." 2304 1800 1152 900;
  List.iteri
    (fun i key ->
      press_key key;
      let o = Vdesk.offset ctx ~screen:0 in
      Format.printf "@.[%s] room %d — viewport at %d,%d — on screen: %s@." key
        (i + 1) o.Geom.px o.Geom.py
        (String.concat ", " (visible_clients ())))
    [ "F1"; "F2"; "F3"; "F4" ];

  (* The panner shows the whole arrangement at a glance. *)
  (match (Ctx.screen ctx 0).Ctx.vdesk with
  | Some vdesk ->
      let pc = Option.get (Wm.find_client wm vdesk.Ctx.panner_client) in
      Format.printf "@.the panner (all four rooms + viewport outline):@.%s@."
        (Swm_xlib.Render.to_string
           (Swm_xlib.Render.render_window server pc.Ctx.frame ~scale:4 ()))
  | None -> ())
