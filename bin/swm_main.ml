(* swm_main: run the window manager on a simulated server with a scripted
   scenario and print what happened.  This is the "demo driver" for the
   whole system: it starts swm with a chosen template, launches a handful
   of the stock clients, exercises the Virtual Desktop, sticky windows,
   iconification and session save, then renders the screen. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Render = Swm_xlib.Render
module Ctx = Swm_core.Ctx
module Wm = Swm_core.Wm
module Functions = Swm_core.Functions
module Templates = Swm_core.Templates
module Vdesk = Swm_core.Vdesk
module Icons = Swm_core.Icons
module Stock = Swm_clients.Stock
module Client_app = Swm_clients.Client_app

(* swm --replay FILE: re-execute a crash report or repro file against a
   fresh Server+WM pair and report convergence.  Exit 0 when the replay
   converges (or ran clean with nothing to compare), 1 on divergence or a
   replay crash, 2 on an unreadable/unparsable file. *)
let run_replay file =
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "swm --replay: %s\n" msg;
      exit 2
  in
  match Swm_xlib.Replay.parse_report text with
  | Error msg ->
      Printf.eprintf "swm --replay: %s: %s\n" file msg;
      exit 2
  | Ok report ->
      let outcome = Wm.replay report in
      Printf.printf "%s: %s\n" file (Swm_xlib.Replay.outcome_to_string outcome);
      (match outcome with
      | Swm_xlib.Replay.Diverged d ->
          List.iter (fun op -> Printf.printf "  context: %s\n" op) d.d_context
      | _ -> ());
      exit (if Swm_xlib.Replay.ok outcome then 0 else 1)

let template_of_name = function
  | "openlook" -> Templates.open_look
  | "motif" -> Templates.motif
  | "default" -> Templates.default
  | other ->
      Printf.eprintf "unknown template %S (openlook|motif|default)\n" other;
      exit 1

let () =
  let args = Array.to_list Sys.argv in
  (match args with
  | _ :: "--replay" :: file :: _ -> run_replay file
  | _ :: "--replay" :: [] ->
      Printf.eprintf "usage: swm --replay FILE\n";
      exit 2
  | _ -> ());
  if List.mem "-v" args then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Ctx.log_src (Some Logs.Debug)
  end;
  let template =
    match List.filter (fun a -> a <> "-v") args with
    | _ :: name :: _ -> template_of_name name
    | _ -> Templates.open_look
  in
  let server = Server.create () in
  let wm = Wm.start ~resources:[ template ] server in
  let ctx = Wm.ctx wm in

  Printf.printf "swm started: %d screen(s), virtual desktop %s\n"
    (Server.screen_count server)
    (match (Ctx.screen ctx 0).Ctx.vdesk with
    | Some v ->
        let w, h = v.Ctx.vsize in
        Printf.sprintf "%dx%d" w h
    | None -> "off");

  let xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  let xclock = Stock.xclock server ~at:(Geom.point 900 40) () in
  let oclock = Stock.oclock server ~at:(Geom.point 500 500) () in
  ignore (Wm.step wm);
  Printf.printf "managed %d clients\n" (List.length (Ctx.all_clients ctx));

  (* Make the clock sticky, iconify the xterm, pan the desktop. *)
  (match Wm.find_client wm (Client_app.window xclock) with
  | Some client ->
      Functions.execute ctx
        (Functions.invocation ~client ~screen:0 ())
        [ { Swm_core.Bindings.fname = "f.stick"; farg = None } ]
  | None -> ());
  (match Wm.find_client wm (Client_app.window xterm) with
  | Some client -> Icons.iconify ctx client
  | None -> ());
  Vdesk.pan_by ctx ~screen:0 ~dx:200 ~dy:150;
  ignore (Wm.step wm);

  Printf.printf "panned viewport to %s\n"
    (Format.asprintf "%a" Geom.pp_point (Vdesk.offset ctx ~screen:0));
  ignore oclock;

  (* Session snapshot. *)
  Functions.execute ctx
    (Functions.invocation ~screen:0 ())
    [ { Swm_core.Bindings.fname = "f.places"; farg = None } ];
  (match ctx.Ctx.last_places with
  | Some content ->
      Printf.printf "\n----- f.places output -----\n%s\n" content
  | None -> ());

  print_endline "----- screen -----";
  print_string (Render.to_string (Render.render server ~screen:0 ~scale:16 ()));

  (* f.restart: the WM exits, save-set windows survive on the root, and a
     fresh instance adopts them. *)
  Functions.execute ctx
    (Functions.invocation ~screen:0 ())
    [ { Swm_core.Bindings.fname = "f.restart"; farg = None } ];
  if ctx.Ctx.restart_requested then begin
    Wm.shutdown wm;
    let wm2 = Wm.start ~resources:[ template ] server in
    ignore (Wm.step wm2);
    Printf.printf "\nafter f.restart: new instance manages %d clients\n"
      (List.length
         (List.filter
            (fun (c : Ctx.client) -> c.Ctx.class_ <> "SwmPanel" && c.Ctx.class_ <> "Panner")
            (Ctx.all_clients (Wm.ctx wm2))))
  end
