module Metrics = Swm_xlib.Metrics
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid

let x_window_limit = 32767

let create (ctx : Ctx.t) ~screen ~size ?(desktops = 1) () =
  let sw, sh = Server.screen_size ctx.server ~screen in
  let w, h = size in
  if desktops < 1 then invalid_arg "Vdesk.create: desktops < 1";
  if w < sw || h < sh then invalid_arg "Vdesk.create: desktop smaller than screen";
  if w > x_window_limit || h > x_window_limit then
    invalid_arg "Vdesk.create: beyond the usable area of an X window (32767)";
  let scr = Ctx.screen ctx screen in
  let vwins =
    Array.init desktops (fun _ ->
        (* The desktop stands in for the root: redirect map/configure of
           whatever ends up parented here (undecorated clients). *)
        Server.create_window ctx.server ctx.conn ~parent:scr.root
          ~geom:(Geom.rect 0 0 w h) ~override_redirect:true
          ~event_mask:
            [ Swm_xlib.Event.Substructure_redirect; Swm_xlib.Event.Substructure_notify ]
          ~background:'.' ())
  in
  Array.iter (fun vwin -> Server.lower_window ctx.server ctx.conn vwin) vwins;
  Server.map_window ctx.server ctx.conn vwins.(0);
  let vdesk =
    {
      Ctx.vwins;
      current = 0;
      vsize = size;
      panner_client = Xid.none;
      panner_scale = 24;
      panner_outline = Xid.none;
    }
  in
  scr.vdesk <- Some vdesk;
  vdesk

let vdesk_of ctx ~screen = (Ctx.screen ctx screen).vdesk

let effective_parent (ctx : Ctx.t) ~screen ~sticky =
  let scr = Ctx.screen ctx screen in
  match scr.vdesk with
  | Some vdesk when not sticky -> vdesk.vwins.(vdesk.current)
  | Some _ | None -> scr.root

let effective_root ctx (client : Ctx.client) =
  effective_parent ctx ~screen:client.screen ~sticky:client.sticky

let offset ctx ~screen =
  match vdesk_of ctx ~screen with
  | None -> Geom.point 0 0
  | Some vdesk ->
      let geom = Server.geometry ctx.Ctx.server vdesk.vwins.(vdesk.current) in
      Geom.point (-geom.x) (-geom.y)

let viewport (ctx : Ctx.t) ~screen =
  let sw, sh = Server.screen_size ctx.server ~screen in
  let o = offset ctx ~screen in
  Geom.rect o.px o.py sw sh

let pan_to (ctx : Ctx.t) ~screen pos =
  match vdesk_of ctx ~screen with
  | None -> ()
  | Some vdesk ->
      let sw, sh = Server.screen_size ctx.server ~screen in
      let w, h = vdesk.vsize in
      let x = max 0 (min pos.Geom.px (w - sw)) in
      let y = max 0 (min pos.Geom.py (h - sh)) in
      let tracer = Server.tracer ctx.server in
      (if Swm_xlib.Tracing.enabled tracer then
         Swm_xlib.Tracing.span tracer "vdesk.pan_to"
           ~attrs:[ ("x", string_of_int x); ("y", string_of_int y) ]
       else fun f -> f ())
      @@ fun () ->
      let vwin = vdesk.vwins.(vdesk.current) in
      let geom = Server.geometry ctx.server vwin in
      Ctx.Log.debug (fun m -> m "pan screen %d to %d,%d" screen x y);
      Metrics.incr (Metrics.counter (Server.metrics ctx.server) "vdesk.pans");
      let recorder = Server.recorder ctx.server in
      if Swm_xlib.Recorder.enabled recorder then
        Swm_xlib.Recorder.record recorder ~kind:"pan"
          ~attrs:
            [
              ("screen", string_of_int screen);
              ("x", string_of_int x);
              ("y", string_of_int y);
            ]
          (Printf.sprintf "pan screen %d to %d,%d" screen x y);
      Server.move_resize ctx.server ctx.conn vwin { geom with Geom.x = -x; y = -y };
      Ctx.damage_viewport ctx ~screen

let pan_by ctx ~screen ~dx ~dy =
  let o = offset ctx ~screen in
  pan_to ctx ~screen (Geom.point (o.px + dx) (o.py + dy))

let resize_desktop (ctx : Ctx.t) ~screen size =
  match vdesk_of ctx ~screen with
  | None -> ()
  | Some vdesk ->
      let sw, sh = Server.screen_size ctx.server ~screen in
      let w, h = size in
      if w < sw || h < sh || w > x_window_limit || h > x_window_limit then
        invalid_arg "Vdesk.resize_desktop: bad size";
      vdesk.vsize <- size;
      Ctx.damage_full ctx ~screen;
      Array.iter
        (fun vwin ->
          let geom = Server.geometry ctx.server vwin in
          Server.move_resize ctx.server ctx.conn vwin { geom with Geom.w = w; h = h })
        vdesk.vwins;
      (* Keep the viewport in bounds after a shrink. *)
      let o = offset ctx ~screen in
      pan_to ctx ~screen o

let current_desktop ctx ~screen =
  match vdesk_of ctx ~screen with Some v -> v.current | None -> 0

let desktop_count ctx ~screen =
  match vdesk_of ctx ~screen with Some v -> Array.length v.vwins | None -> 1

let clients_on_desktop (ctx : Ctx.t) ~screen =
  List.filter
    (fun (c : Ctx.client) -> c.screen = screen && not c.sticky)
    (Ctx.all_clients ctx)

let switch_desktop (ctx : Ctx.t) ~screen n =
  match vdesk_of ctx ~screen with
  | None -> if n <> 0 then invalid_arg "Vdesk.switch_desktop: no virtual desktop"
  | Some vdesk ->
      if n < 0 || n >= Array.length vdesk.vwins then
        invalid_arg "Vdesk.switch_desktop: index out of range";
      if n <> vdesk.current then begin
        Server.unmap_window ctx.server ctx.conn vdesk.vwins.(vdesk.current);
        vdesk.current <- n;
        Server.map_window ctx.server ctx.conn vdesk.vwins.(n);
        Server.lower_window ctx.server ctx.conn vdesk.vwins.(n);
        Ctx.damage_full ctx ~screen;
        List.iter
          (fun (c : Ctx.client) ->
            Icccm.set_swm_root ctx c.cwin ~root:(effective_root ctx c))
          (clients_on_desktop ctx ~screen)
      end

let set_sticky (ctx : Ctx.t) (client : Ctx.client) sticky =
  if client.sticky <> sticky then begin
    let scr = Ctx.screen ctx client.screen in
    (match scr.vdesk with
    | None -> client.sticky <- sticky
    | Some _ ->
        (* Preserve the on-glass (real-root-relative) position. *)
        let abs = Server.root_geometry ctx.server client.frame in
        client.sticky <- sticky;
        let parent = effective_parent ctx ~screen:client.screen ~sticky in
        let pos =
          if sticky then Geom.point abs.x abs.y
          else begin
            let o = offset ctx ~screen:client.screen in
            Geom.point (abs.x + o.px) (abs.y + o.py)
          end
        in
        Server.reparent_window ctx.server ctx.conn client.frame ~new_parent:parent ~pos;
        Ctx.restack ctx client Swm_xlib.Event.Above;
        Ctx.damage_geometry ctx client;
        Ctx.damage_membership ctx client);
    Icccm.set_swm_root ctx client.cwin ~root:(effective_root ctx client);
    Icccm.send_synthetic_configure ctx client
  end

let is_desktop_window ctx ~screen win =
  match vdesk_of ctx ~screen with
  | None -> false
  | Some vdesk -> Array.exists (fun v -> Xid.equal v win) vdesk.vwins
