module Metrics = Swm_xlib.Metrics
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event

let create (ctx : Ctx.t) ~screen =
  let scr = Ctx.screen ctx screen in
  match scr.vdesk with
  | None -> None
  | Some vdesk ->
      let want =
        match Config.query1 ctx.cfg ~screen "panner" with
        | Some v -> (
            match String.lowercase_ascii (String.trim v) with
            | "true" | "yes" | "on" | "1" -> true
            | _ -> false)
        | None -> false
      in
      if not want then None
      else begin
        let scale =
          match
            Config.query ctx.cfg ~screen ~names:[ "panner"; "scale" ]
              ~classes:[ "Panner"; "Scale" ]
          with
          | Some v -> ( match int_of_string_opt (String.trim v) with
                        | Some n when n > 0 -> n
                        | Some _ | None -> 24)
          | None -> 24
        in
        let dw, dh = vdesk.vsize in
        let pw = dw / scale and ph = dh / scale in
        let sw, sh = Server.screen_size ctx.server ~screen in
        let pos =
          match
            Config.query ctx.cfg ~screen ~names:[ "panner"; "geometry" ]
              ~classes:[ "Panner"; "Geometry" ]
          with
          | Some g -> (
              match Geom.parse g with
              | Ok spec ->
                  let r =
                    Geom.resolve spec ~default:(Geom.rect 0 0 pw ph)
                      ~within:(Geom.rect 0 0 sw sh)
                  in
                  Geom.point r.x r.y
              | Error _ -> Geom.point (sw - pw - 16) (sh - ph - 16))
          | None -> Geom.point (sw - pw - 16) (sh - ph - 16)
        in
        let win =
          Server.create_window ctx.server ctx.conn ~parent:scr.root
            ~geom:(Geom.rect pos.px pos.py pw ph) ~background:'.' ()
        in
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_class
          (Prop.Wm_class { instance = "panner"; class_ = "Panner" });
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_name
          (Prop.String "Virtual Desktop");
        (* swm placed the panner deliberately: keep that position. *)
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_normal_hints
          (Prop.Size_hints { Prop.default_size_hints with us_position = true });
        Server.select_input ctx.server ctx.conn win
          [ Event.Button_press_mask; Event.Button_release_mask;
            Event.Pointer_motion_mask ];
        vdesk.panner_client <- win;
        vdesk.panner_scale <- scale;
        Some win
      end

let vdesk_of (ctx : Ctx.t) ~screen = (Ctx.screen ctx screen).vdesk

let is_panner (ctx : Ctx.t) (client : Ctx.client) =
  match vdesk_of ctx ~screen:client.screen with
  | Some vdesk -> Xid.equal vdesk.panner_client client.cwin
  | None -> false

let clear_miniatures (ctx : Ctx.t) ~screen =
  let stale =
    Xid.Tbl.fold
      (fun mini (c : Ctx.client) acc ->
        if c.screen = screen then mini :: acc else acc)
      ctx.panner_minis []
  in
  List.iter
    (fun mini ->
      Xid.Tbl.remove ctx.panner_minis mini;
      if Server.window_exists ctx.server mini then
        Server.destroy_window ctx.server mini)
    stale

let refresh (ctx : Ctx.t) ~screen =
  if ctx.tier <> Ctx.Tier_full then
    (* Degraded: the panner is a luxury redraw.  The governor re-runs
       refresh on every screen when it restores the full tier. *)
    Metrics.incr
      (Metrics.counter (Server.metrics ctx.server) "governor.refreshes_skipped")
  else
  (let tracer = Server.tracer ctx.server in
   if Swm_xlib.Tracing.enabled tracer then
     Swm_xlib.Tracing.span tracer "panner.refresh"
   else fun f -> f ())
  @@ fun () ->
  Metrics.time_mono_ns (Server.metrics ctx.server) "panner.refresh_ns" @@ fun () ->
  Scrollbar.refresh ctx ~screen;
  match vdesk_of ctx ~screen with
  | None -> ()
  | Some vdesk when Xid.is_none vdesk.panner_client -> ()
  | Some vdesk ->
      if Server.window_exists ctx.server vdesk.panner_client then begin
        clear_miniatures ctx ~screen;
        (* Drop any previous outline children owned by us on the panner. *)
        List.iter
          (fun child ->
            if not (Xid.Tbl.mem ctx.panner_minis child) then
              Server.destroy_window ctx.server child)
          (Server.children_of ctx.server vdesk.panner_client);
        let scale = vdesk.panner_scale in
        (* Viewport outline first, so the miniatures stack above it and
           receive their own button presses. *)
        let vp = Vdesk.viewport ctx ~screen in
        let outline =
          Server.create_window ctx.server ctx.conn ~parent:vdesk.panner_client
            ~geom:
              (Geom.rect (vp.x / scale) (vp.y / scale)
                 (max 1 (vp.w / scale))
                 (max 1 (vp.h / scale)))
            ~border:1 ()
        in
        Server.map_window ctx.server ctx.conn outline;
        (* One miniature per non-sticky, non-iconic client on the desktop,
           created bottom-to-top so the panner mirrors the stacking order. *)
        let stacked_clients =
          List.filter_map
            (fun frame -> Xid.Tbl.find_opt ctx.frames frame)
            (Server.children_of ctx.server vdesk.vwins.(vdesk.current))
        in
        List.iter
          (fun (client : Ctx.client) ->
            if
              client.screen = screen && (not client.sticky)
              && client.state = Prop.Normal
              && not (is_panner ctx client)
            then begin
              let geom = Server.geometry ctx.server client.frame in
              let mini =
                Server.create_window ctx.server ctx.conn
                  ~parent:vdesk.panner_client
                  ~geom:
                    (Geom.rect (geom.x / scale) (geom.y / scale)
                       (max 1 (geom.w / scale))
                       (max 1 (geom.h / scale)))
                  ~background:'m' ()
              in
              Server.select_input ctx.server ctx.conn mini
                [ Event.Button_press_mask; Event.Button_release_mask ];
              Server.map_window ctx.server ctx.conn mini;
              Xid.Tbl.replace ctx.panner_minis mini client
            end)
          stacked_clients
      end

let client_of_miniature (ctx : Ctx.t) win = Xid.Tbl.find_opt ctx.panner_minis win

let desktop_pos_of_panner_pos (ctx : Ctx.t) ~screen pos =
  match vdesk_of ctx ~screen with
  | None -> pos
  | Some vdesk ->
      Geom.point (pos.Geom.px * vdesk.panner_scale) (pos.Geom.py * vdesk.panner_scale)

let pan_to_pointer (ctx : Ctx.t) ~screen ~panner_pos =
  let desktop_pos = desktop_pos_of_panner_pos ctx ~screen panner_pos in
  let sw, sh = Server.screen_size ctx.server ~screen in
  Vdesk.pan_to ctx ~screen
    (Geom.point (desktop_pos.px - (sw / 2)) (desktop_pos.py - (sh / 2)));
  refresh ctx ~screen

let panner_resized (ctx : Ctx.t) (client : Ctx.client) (w, h) =
  match vdesk_of ctx ~screen:client.screen with
  | Some vdesk when Xid.equal vdesk.panner_client client.cwin ->
      let scale = vdesk.panner_scale in
      let sw, sh = Server.screen_size ctx.server ~screen:client.screen in
      let dw = max sw (w * scale) and dh = max sh (h * scale) in
      let limited w = min w 32767 in
      Vdesk.resize_desktop ctx ~screen:client.screen (limited dw, limited dh);
      refresh ctx ~screen:client.screen
  | Some _ | None -> ()
