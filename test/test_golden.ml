(* Golden-figure regression tests: the rendered figures shipped in
   figures/*.txt must match what the code produces today.  Regenerate with

     for f in fig1 fig2 fig3 fig_shape; do
       dune exec bin/swm_render.exe -- $f > figures/$f.txt; done *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Render = Swm_xlib.Render
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

(* [dune runtest] runs in _build/default/test; a suite run with [dune exec]
   runs in the repository root. *)
let figures_dir =
  if Sys.file_exists "../figures" && Sys.is_directory "../figures" then "../figures"
  else "figures"

(* The stored file is swm_render's stdout: a blank line, a header line, then
   the canvas. *)
let golden_body name =
  let path = Filename.concat figures_dir (name ^ ".txt") in
  match In_channel.with_open_text path In_channel.input_all with
  | content -> (
      match String.index_opt content '=' with
      | Some _ ->
          let lines = String.split_on_char '\n' content in
          let body =
            match lines with
            | "" :: header :: rest when String.length header > 0 && header.[0] = '=' ->
                rest
            | _ -> lines
          in
          Some (String.concat "\n" body)
      | None -> None)
  | exception Sys_error _ -> None

let compare_with_golden name rendered =
  match golden_body name with
  | None -> Alcotest.failf "missing or unreadable golden figures/%s.txt" name
  | Some body ->
      (* Tolerate trailing whitespace differences from the shell capture. *)
      let norm s = String.trim s in
      check Alcotest.bool (name ^ " matches golden render") true
        (norm body = norm rendered)

let test_fig1_golden () =
  let server =
    Server.create ~screens:[ { Server.size = (640, 400); monochrome = false } ] ()
  in
  let wm =
    Wm.start
      ~resources:[ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]
      server
  in
  let app =
    Client_app.launch server
      (Client_app.spec ~instance:"xterm" ~class_:"XTerm" ~us_position:true
         ~background:'t' (Geom.rect 40 48 320 160))
  in
  ignore (Wm.step wm);
  let client = Option.get (Wm.find_client wm (Client_app.window app)) in
  compare_with_golden "fig1"
    (Render.to_string (Render.render_window server client.Ctx.frame ~scale:8 ()))

let test_fig2_golden () =
  let server =
    Server.create ~screens:[ { Server.size = (640, 400); monochrome = false } ] ()
  in
  let wm =
    Wm.start ~resources:[ Templates.open_look; "swm*virtualDesktop: False\n" ] server
  in
  let scr = Ctx.screen (Wm.ctx wm) 0 in
  let panel = List.hd scr.Ctx.root_panels in
  let win = Swm_oi.Wobj.window panel in
  let frame =
    match Wm.find_client wm win with
    | Some client -> client.Ctx.frame
    | None -> win
  in
  compare_with_golden "fig2"
    (Render.to_string (Render.render_window server frame ~scale:8 ()))

let test_fig3_golden () =
  let server =
    Server.create ~screens:[ { Server.size = (1152, 900); monochrome = false } ] ()
  in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _a = Stock.xterm server ~at:(Geom.point 100 120) () in
  let _b = Stock.xclock server ~at:(Geom.point 700 200) () in
  let _c = Stock.xterm server ~at:(Geom.point 1600 1000) ~instance:"xterm2" () in
  ignore (Wm.step wm);
  let ctx = Wm.ctx wm in
  Swm_core.Panner.refresh ctx ~screen:0;
  match (Ctx.screen ctx 0).Ctx.vdesk with
  | Some vdesk ->
      let client = Option.get (Wm.find_client wm vdesk.Ctx.panner_client) in
      compare_with_golden "fig3"
        (Render.to_string (Render.render_window server client.Ctx.frame ~scale:4 ()))
  | None -> Alcotest.fail "no panner"

let test_fig_shape_golden () =
  let server =
    Server.create ~screens:[ { Server.size = (640, 400); monochrome = false } ] ()
  in
  let wm =
    Wm.start
      ~resources:[ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]
      server
  in
  let _app = Stock.oclock server ~at:(Geom.point 100 80) () in
  ignore (Wm.step wm);
  compare_with_golden "fig_shape"
    (Render.to_string (Render.render server ~screen:0 ~scale:8 ()))

let suite =
  [
    Alcotest.test_case "Figure 1 golden" `Quick test_fig1_golden;
    Alcotest.test_case "Figure 2 golden" `Quick test_fig2_golden;
    Alcotest.test_case "Figure 3 golden" `Quick test_fig3_golden;
    Alcotest.test_case "shaped figure golden" `Quick test_fig_shape_golden;
  ]
