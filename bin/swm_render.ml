(* Regenerate the paper's figures as character renderings.

   Usage: swm_render [fig1|fig2|fig3|fig_shape|all] *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Render = Swm_xlib.Render
module Wm = Swm_core.Wm
module Templates = Swm_core.Templates
module Stock = Swm_clients.Stock
module Client_app = Swm_clients.Client_app

let separator title =
  Printf.printf "\n===== %s =====\n" title

(* Figure 1: an OpenLook+ decorated client. *)
let fig1 () =
  separator "Figure 1: OpenLook+ decoration (xterm, 320x160 client)";
  let server = Server.create ~screens:[ { Server.size = (640, 400); monochrome = false } ] () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ] server in
  let app =
    Client_app.launch server
      (Client_app.spec ~instance:"xterm" ~class_:"XTerm" ~us_position:true
         ~background:'t' (Geom.rect 40 48 320 160))
  in
  ignore (Wm.step wm);
  (match Wm.find_client wm (Client_app.window app) with
  | Some client ->
      print_string
        (Render.to_string (Render.render_window server client.Swm_core.Ctx.frame ~scale:8 ()))
  | None -> print_endline "client not managed?")

(* Figure 2: the root panel. *)
let fig2 () =
  separator "Figure 2: Root panel (reparented; quit/restart/... buttons)";
  let server = Server.create ~screens:[ { Server.size = (640, 400); monochrome = false } ] () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*virtualDesktop: False\n" ] server in
  let scr = Swm_core.Ctx.screen (Wm.ctx wm) 0 in
  (match scr.Swm_core.Ctx.root_panels with
  | panel :: _ ->
      let win = Swm_oi.Wobj.window panel in
      let frame =
        match Wm.find_client wm win with
        | Some client -> client.Swm_core.Ctx.frame
        | None -> win
      in
      print_string (Render.to_string (Render.render_window server frame ~scale:8 ()))
  | [] -> print_endline "no root panel configured")

(* Figure 3: the Virtual Desktop panner. *)
let fig3 () =
  separator "Figure 3: Virtual Desktop panner (miniatures + viewport outline)";
  let server = Server.create ~screens:[ { Server.size = (1152, 900); monochrome = false } ] () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _a = Stock.xterm server ~at:(Geom.point 100 120) () in
  let _b = Stock.xclock server ~at:(Geom.point 700 200) () in
  let _c = Stock.xterm server ~at:(Geom.point 1600 1000) ~instance:"xterm2" () in
  ignore (Wm.step wm);
  let ctx = Wm.ctx wm in
  (match (Swm_core.Ctx.screen ctx 0).Swm_core.Ctx.vdesk with
  | Some vdesk when not (Swm_xlib.Xid.is_none vdesk.Swm_core.Ctx.panner_client) ->
      let client = Option.get (Wm.find_client wm vdesk.Swm_core.Ctx.panner_client) in
      print_string
        (Render.to_string (Render.render_window server client.Swm_core.Ctx.frame ~scale:4 ()))
  | Some _ | None -> print_endline "no panner")

(* Shaped decoration: oclock under shaped*decoration. *)
let fig_shape () =
  separator "Shaped client: oclock with shaped decoration (no visible frame)";
  let server = Server.create ~screens:[ { Server.size = (640, 400); monochrome = false } ] () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ] server in
  let app = Stock.oclock server ~at:(Geom.point 100 80) () in
  ignore (Wm.step wm);
  ignore app;
  print_string (Render.to_string (Render.render server ~screen:0 ~scale:8 ()))

let all () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig_shape ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "fig1" -> fig1 ()
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "fig_shape" -> fig_shape ()
  | "all" -> all ()
  | other ->
      Printf.eprintf "unknown figure %S (fig1|fig2|fig3|fig_shape|all)\n" other;
      exit 1
