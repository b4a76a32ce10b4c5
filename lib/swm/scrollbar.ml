module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event

let bar_thickness = 12

let wanted (ctx : Ctx.t) ~screen =
  Option.bind (Config.query1 ctx.cfg ~screen "scrollbars") Swm_xrdb.Xrdb.parse_bool
  = Some true

let make_bar (ctx : Ctx.t) ~screen ~geom =
  let scr = Ctx.screen ctx screen in
  let bar =
    Server.create_window ctx.server ctx.conn ~parent:scr.root ~geom
      ~override_redirect:true
      ~event_mask:[ Event.Button_press_mask; Event.Button_release_mask ]
      ~background:'-' ()
  in
  let thumb =
    Server.create_window ctx.server ctx.conn ~parent:bar
      ~geom:(Geom.rect 0 0 10 10) ~background:'=' ()
  in
  Server.map_window ctx.server ctx.conn thumb;
  Server.map_window ctx.server ctx.conn bar;
  (bar, thumb)

let thumb_geometry ~bar_len ~desktop_len ~view_pos ~view_len =
  let pos = view_pos * bar_len / desktop_len in
  let len = max 4 (view_len * bar_len / desktop_len) in
  (pos, len)

let refresh (ctx : Ctx.t) ~screen =
  let scr = Ctx.screen ctx screen in
  match scr.vdesk with
  | None -> ()
  | Some vdesk ->
      let dw, dh = vdesk.vsize in
      let vp = Vdesk.viewport ctx ~screen in
      (match scr.hbar with
      | Some (bar, thumb) when Server.window_exists ctx.server bar ->
          let bar_len = (Server.geometry ctx.server bar).w in
          let pos, len =
            thumb_geometry ~bar_len ~desktop_len:dw ~view_pos:vp.x ~view_len:vp.w
          in
          Ctx.place ctx thumb (Geom.rect pos 1 len (bar_thickness - 2))
      | Some _ | None -> ());
      match scr.vbar with
      | Some (bar, thumb) when Server.window_exists ctx.server bar ->
          let bar_len = (Server.geometry ctx.server bar).h in
          let pos, len =
            thumb_geometry ~bar_len ~desktop_len:dh ~view_pos:vp.y ~view_len:vp.h
          in
          Ctx.place ctx thumb (Geom.rect 1 pos (bar_thickness - 2) len)
      | Some _ | None -> ()

let create (ctx : Ctx.t) ~screen =
  let scr = Ctx.screen ctx screen in
  if scr.vdesk <> None && wanted ctx ~screen then begin
    let sw, sh = Server.screen_size ctx.server ~screen in
    scr.hbar <-
      Some
        (make_bar ctx ~screen
           ~geom:(Geom.rect 0 (sh - bar_thickness) (sw - bar_thickness) bar_thickness));
    scr.vbar <-
      Some
        (make_bar ctx ~screen
           ~geom:(Geom.rect (sw - bar_thickness) 0 bar_thickness (sh - bar_thickness)));
    refresh ctx ~screen
  end

let classify (ctx : Ctx.t) ~screen win =
  let scr = Ctx.screen ctx screen in
  let matches = function
    | Some (bar, thumb) -> Xid.equal win bar || Xid.equal win thumb
    | None -> false
  in
  if matches scr.hbar then Some `Horizontal
  else if matches scr.vbar then Some `Vertical
  else None

let handle_press (ctx : Ctx.t) ~screen direction ~bar_pos =
  let scr = Ctx.screen ctx screen in
  match scr.vdesk with
  | None -> ()
  | Some vdesk ->
      let dw, dh = vdesk.vsize in
      let sw, sh = Server.screen_size ctx.server ~screen in
      let o = Vdesk.offset ctx ~screen in
      (match direction with
      | `Horizontal -> (
          match scr.hbar with
          | Some (bar, _) ->
              let bar_len = (Server.geometry ctx.server bar).w in
              let x = (bar_pos.Geom.px * dw / max 1 bar_len) - (sw / 2) in
              Vdesk.pan_to ctx ~screen (Geom.point x o.py)
          | None -> ())
      | `Vertical -> (
          match scr.vbar with
          | Some (bar, _) ->
              let bar_len = (Server.geometry ctx.server bar).h in
              let y = (bar_pos.Geom.py * dh / max 1 bar_len) - (sh / 2) in
              Vdesk.pan_to ctx ~screen (Geom.point o.px y)
          | None -> ()))
