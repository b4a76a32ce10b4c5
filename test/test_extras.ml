(* Extension coverage: scrollbars, dynamic button appearance/bindings,
   circulate/raiselower/warpTo, auto-raise via <Enter> bindings,
   multi-screen management, and the panner crossing case where a move starts
   on the client and ends in the panner. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Panner = Swm_core.Panner
module Scrollbar = Swm_core.Scrollbar
module Functions = Swm_core.Functions
module Templates = Swm_core.Templates
module Wobj = Swm_oi.Wobj
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

let client_of wm app = Option.get (Wm.find_client wm (Client_app.window app))

let run ctx ?client text =
  match Functions.execute_string ctx (Functions.invocation ?client ~screen:0 ()) text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "execute: %s" msg

(* -------- scrollbars -------- *)

let scroll_fixture () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look; "swm*rootPanels:\nswm*panner: False\nswm*scrollbars: True\n" ]
      server
  in
  (server, wm, Wm.ctx wm)

let test_scrollbars_created () =
  let server, _wm, ctx = scroll_fixture () in
  let scr = Ctx.screen ctx 0 in
  (match (scr.Ctx.hbar, scr.Ctx.vbar) with
  | Some (hbar, hthumb), Some (vbar, vthumb) ->
      let sw, sh = Server.screen_size server ~screen:0 in
      let hg = Server.geometry server hbar in
      check Alcotest.int "hbar along the bottom" (sh - Scrollbar.bar_thickness) hg.y;
      let vg = Server.geometry server vbar in
      check Alcotest.int "vbar along the right" (sw - Scrollbar.bar_thickness) vg.x;
      check Alcotest.bool "thumbs mapped" true
        (Server.is_viewable server hthumb && Server.is_viewable server vthumb);
      (* Thumb length reflects viewport/desktop ratio (screen is 1/3). *)
      let tg = Server.geometry server hthumb in
      let expected = (sw - Scrollbar.bar_thickness) * sw / 3456 in
      check Alcotest.bool "thumb proportional" true (abs (tg.w - expected) <= 2)
  | _ -> Alcotest.fail "scrollbars missing")

let test_scrollbars_absent_by_default () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  let scr = Ctx.screen (Wm.ctx wm) 0 in
  ignore server;
  check Alcotest.bool "no bars unless asked" true
    (scr.Ctx.hbar = None && scr.Ctx.vbar = None)

let test_scrollbar_click_pans () =
  let server, wm, ctx = scroll_fixture () in
  let scr = Ctx.screen ctx 0 in
  let hbar, hthumb = Option.get scr.Ctx.hbar in
  let hg = Server.root_geometry server hbar in
  (* Click at the middle of the horizontal bar: centre the viewport there. *)
  Server.warp_pointer server ~screen:0
    (Geom.point (hg.x + (hg.w / 2)) (hg.y + (Scrollbar.bar_thickness / 2)));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let o = Vdesk.offset ctx ~screen:0 in
  let sw, _ = Server.screen_size server ~screen:0 in
  check Alcotest.bool "panned toward the middle" true
    (abs (o.px - ((3456 / 2) - (sw / 2))) < 60);
  check Alcotest.int "vertical untouched" 0 o.py;
  (* The thumb followed. *)
  let tg = Server.geometry server hthumb in
  check Alcotest.bool "thumb moved" true (tg.x > 0)

let test_thumb_follows_function_pan () =
  let server, wm, ctx = scroll_fixture () in
  let scr = Ctx.screen ctx 0 in
  let _, vthumb = Option.get scr.Ctx.vbar in
  let before = (Server.geometry server vthumb).y in
  run ctx "f.panTo(0,900)";
  ignore (Wm.step wm);
  let after = (Server.geometry server vthumb).y in
  check Alcotest.bool "v-thumb tracked the pan" true (after > before)

(* -------- dynamic buttons -------- *)

let plain_fixture ?(extra = "") () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ^ extra ]
      server
  in
  (server, wm, Wm.ctx wm)

let test_dynamic_label () =
  let server, wm, ctx = plain_fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  (* Change the nail button's face, as a status indicator would. *)
  run ctx "f.setLabel(nail,BUSY)";
  let nail =
    Option.get (Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"nail")
  in
  check Alcotest.string "label changed" "BUSY" (Wobj.label nail);
  check Alcotest.string "window text updated" "BUSY"
    (Option.value ~default:"" (Server.label_of server (Wobj.window nail)))

let test_dynamic_bindings () =
  let server, wm, ctx = plain_fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  (* Rebind the nail from f.stick to f.iconify, then click it. *)
  run ctx "f.setBindings(nail,<Btn1> : f.iconify)";
  let nail =
    Option.get (Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"nail")
  in
  let abs = Server.root_geometry server (Wobj.window nail) in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2) (abs.y + 2));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "new binding fired" true (client.Ctx.state = Prop.Iconic);
  check Alcotest.bool "old binding gone (not sticky)" false client.Ctx.sticky

(* Each distinct bindings text is parsed once and cached; texts set over
   swmcmd are unbounded, so the cache must stay within its capacity while
   the newest binding still runs. *)
let test_binding_cache_bounded () =
  let server, wm, ctx = plain_fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let nail =
    Option.get (Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"nail")
  in
  let abs = Server.root_geometry server (Wobj.window nail) in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2) (abs.y + 2));
  ignore (Wm.step wm);
  for i = 1 to 1_000 do
    run ctx (Printf.sprintf "f.setBindings(nail,<Btn1> : f.exec(cmd%d))" i);
    Server.press_button server 1;
    ignore (Wm.step wm);
    Server.release_button server 1;
    ignore (Wm.step wm);
    if Hashtbl.length ctx.Ctx.binding_cache > Ctx.binding_cache_capacity then
      Alcotest.failf "binding cache holds %d texts after %d, capacity %d"
        (Hashtbl.length ctx.Ctx.binding_cache) i Ctx.binding_cache_capacity
  done;
  check (Alcotest.option Alcotest.string) "the last binding ran" (Some "cmd1000")
    (List.nth_opt ctx.Ctx.executed 0)

(* -------- extra functions -------- *)

let test_raiselower () =
  let server, wm, ctx = plain_fixture () in
  let a = Stock.xterm server ~at:(Geom.point 0 0) () in
  let _b = Stock.xterm server ~at:(Geom.point 50 50) ~instance:"x2" () in
  ignore (Wm.step wm);
  let ca = client_of wm a in
  let top () =
    match
      List.rev (Server.children_of server (Server.parent_of server ca.Ctx.frame))
    with
    | t :: _ -> t
    | [] -> Xid.none
  in
  run ctx ~client:ca "f.raiseLower";
  check Alcotest.bool "raised" true (Xid.equal (top ()) ca.Ctx.frame);
  run ctx ~client:ca "f.raiseLower";
  check Alcotest.bool "lowered when already on top" false
    (Xid.equal (top ()) ca.Ctx.frame)

let test_circulate () =
  let server, wm, ctx = plain_fixture () in
  let a = Stock.xterm server ~at:(Geom.point 0 0) () in
  let b = Stock.xterm server ~at:(Geom.point 40 40) ~instance:"x2" () in
  let c = Stock.xterm server ~at:(Geom.point 80 80) ~instance:"x3" () in
  ignore (Wm.step wm);
  let frames () =
    List.filter
      (fun w -> Xid.Tbl.mem ctx.Ctx.frames w)
      (Server.children_of server (Server.root server ~screen:0))
  in
  let order () = List.map Xid.to_int (frames ()) in
  let before = order () in
  run ctx "f.circulateUp";
  let after = order () in
  check Alcotest.bool "rotated" true (before <> after);
  (* Three circulates come back around. *)
  run ctx "f.circulateUp";
  run ctx "f.circulateUp";
  check (Alcotest.list Alcotest.int) "full cycle" before (order ());
  ignore (a, b, c)

let test_warpto () =
  let server, wm, ctx = plain_fixture () in
  let app = Stock.xclock server ~at:(Geom.point 700 300) () in
  ignore (Wm.step wm);
  run ctx "f.warpTo(XClock)";
  let client = client_of wm app in
  let fgeom = Server.root_geometry server client.Ctx.frame in
  let p = Server.pointer_pos server in
  check Alcotest.bool "pointer inside the clock's frame" true
    (Geom.contains fgeom p)

(* -------- scrolling icon holder (paper §4.1.5) -------- *)

let test_scrolling_holder () =
  let server, wm, ctx =
    plain_fixture
      ~extra:
        {|
swm*iconHolders: box
swm*iconHolder.box.size: 80x64
|}
      ()
  in
  let apps =
    List.init 5 (fun i ->
        Stock.xterm server ~instance:(Printf.sprintf "t%d" i) ())
  in
  ignore (Wm.step wm);
  List.iter (fun app -> Swm_core.Icons.iconify ctx (client_of wm app)) apps;
  let holder = List.hd (Ctx.screen ctx 0).Ctx.holders in
  let hobj = Option.get holder.Ctx.holder_obj in
  let hwin = Wobj.window hobj in
  (* The holder window stays at its fixed size despite five icons. *)
  let hg = Server.geometry server hwin in
  check Alcotest.int "fixed width" 80 hg.w;
  check Alcotest.int "fixed height" 64 hg.h;
  let first_icon = List.hd (Wobj.children hobj) in
  let y0 = (Server.geometry server (Wobj.window first_icon)).y in
  (* Scroll down: content shifts up. *)
  run ctx "f.scrollHolder(box,40)";
  let y1 = (Server.geometry server (Wobj.window first_icon)).y in
  check Alcotest.int "content shifted by the delta" (y0 - 40) y1;
  check Alcotest.int "offset recorded" 40 holder.Ctx.holder_scroll;
  (* Scrolling back past the top clamps at zero. *)
  run ctx "f.scrollHolder(box,-500)";
  check Alcotest.int "clamped at top" 0 holder.Ctx.holder_scroll;
  let y2 = (Server.geometry server (Wobj.window first_icon)).y in
  check Alcotest.int "content restored" y0 y2

(* -------- auto-raise policy via <Enter> bindings -------- *)

let test_autoraise_policy () =
  let server, wm, _ctx =
    plain_fixture
      ~extra:"swm*panel.openLook.bindings: <Enter> : f.raise\n" ()
  in
  let a = Stock.xterm server ~at:(Geom.point 0 0) () in
  let b = Stock.xterm server ~at:(Geom.point 100 100) ~instance:"x2" () in
  ignore (Wm.step wm);
  let ca = client_of wm a and cb = client_of wm b in
  (* b is above a (managed later). Enter a's frame: it auto-raises. *)
  Server.warp_pointer server ~screen:0 (Geom.point 600 600);
  ignore (Wm.step wm);
  let a_abs = Server.root_geometry server ca.Ctx.frame in
  Server.warp_pointer server ~screen:0 (Geom.point (a_abs.x + 3) (a_abs.y + 60));
  ignore (Wm.step wm);
  let top =
    List.rev (Server.children_of server (Server.root server ~screen:0)) |> List.hd
  in
  check Alcotest.bool "entered frame raised" true (Xid.equal top ca.Ctx.frame);
  ignore cb

(* -------- ICCCM size hints -------- *)

let test_size_hints_enforced () =
  let server, wm, _ctx = plain_fixture () in
  let conn = Server.connect server ~name:"hinted" in
  let win =
    Server.create_window server conn
      ~parent:(Server.root server ~screen:0)
      ~geom:(Geom.rect 0 0 200 200) ()
  in
  Server.change_property server conn win ~name:Prop.wm_class
    (Prop.Wm_class { instance = "hinted"; class_ = "Hinted" });
  Server.change_property server conn win ~name:Prop.wm_normal_hints
    (Prop.Size_hints
       {
         Prop.default_size_hints with
         min_size = Some (100, 80);
         max_size = Some (400, 300);
       });
  Server.map_window server conn win;
  ignore (Wm.step wm);
  let client = Option.get (Wm.find_client wm win) in
  (* Below the minimum: clamped up. *)
  Swm_core.Decoration.client_resized (Wm.ctx wm) client (10, 10);
  let g = Server.geometry server win in
  check Alcotest.int "min width" 100 g.w;
  check Alcotest.int "min height" 80 g.h;
  (* Above the maximum: clamped down. *)
  Swm_core.Decoration.client_resized (Wm.ctx wm) client (900, 900);
  let g = Server.geometry server win in
  check Alcotest.int "max width" 400 g.w;
  check Alcotest.int "max height" 300 g.h

let test_resize_increments () =
  (* xterm-style cell snapping: increments from the minimum size. *)
  let hints =
    {
      Prop.default_size_hints with
      min_size = Some (20, 30);
      resize_inc = Some (9, 16);
    }
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "snap down" (20 + 27, 30 + 32)
    (Swm_core.Icccm.constrain_size hints (50, 65));
  check (Alcotest.pair Alcotest.int Alcotest.int) "exact grid" (29, 46)
    (Swm_core.Icccm.constrain_size hints (29, 46));
  check (Alcotest.pair Alcotest.int Alcotest.int) "below min" (20, 30)
    (Swm_core.Icccm.constrain_size hints (1, 1))

(* -------- outline (non-opaque) move -------- *)

let test_outline_move () =
  let server, wm, ctx = plain_fixture ~extra:"swm*opaqueMove: False\n" () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let title =
    Wobj.window
      (Option.get (Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"name"))
  in
  let t_abs = Server.root_geometry server title in
  Server.warp_pointer server ~screen:0 (Geom.point (t_abs.x + 2) (t_abs.y + 2));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let outline =
    match ctx.Ctx.mode with
    | Ctx.Moving { m_outline; _ } when not (Xid.is_none m_outline) -> m_outline
    | _ -> Alcotest.fail "expected an outline move"
  in
  let frame_before = Server.geometry server client.Ctx.frame in
  (* Drag: the frame must NOT move yet; the outline does. *)
  Server.warp_pointer server ~screen:0 (Geom.point (t_abs.x + 202) (t_abs.y + 102));
  ignore (Wm.step wm);
  check Alcotest.bool "frame still in place" true
    (Geom.rect_equal (Server.geometry server client.Ctx.frame) frame_before);
  let og = Server.geometry server outline in
  check Alcotest.bool "outline moved" true (og.x <> frame_before.x);
  (* Release: the frame jumps to the outline's position; outline vanishes. *)
  Server.release_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "outline destroyed" false (Server.window_exists server outline);
  let fg = Server.geometry server client.Ctx.frame in
  check Alcotest.int "frame committed x" (frame_before.x + 200) fg.x;
  check Alcotest.int "frame committed y" (frame_before.y + 100) fg.y

let test_corner_resize_anchoring () =
  let server, wm, ctx = plain_fixture () in
  let app = Stock.xterm server ~at:(Geom.point 300 300) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let fg0 = Server.geometry server client.Ctx.frame in
  (* Press the top-left resize corner and drag up-left by (40,20): the
     window grows and the bottom-right edge stays put. *)
  let corner =
    Xid.Tbl.fold
      (fun corner c acc ->
        if c == client && (Server.geometry server corner).x = 0
           && (Server.geometry server corner).y = 0
        then Some corner
        else acc)
      ctx.Ctx.corners None
    |> Option.get
  in
  let abs = Server.root_geometry server corner in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2) (abs.y + 2));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  (match ctx.Ctx.mode with
  | Ctx.Resizing { r_dir; _ } ->
      check Alcotest.bool "top-left direction" true (r_dir = Geom.point (-1) (-1))
  | _ -> Alcotest.fail "expected resize mode");
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2 - 40) (abs.y + 2 - 20));
  ignore (Wm.step wm);
  Server.release_button server 1;
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  check Alcotest.int "grew wider" (fg0.w + 40) fg.w;
  check Alcotest.int "grew taller" (fg0.h + 20) fg.h;
  check Alcotest.int "right edge anchored" (fg0.x + fg0.w) (fg.x + fg.w);
  check Alcotest.int "bottom edge anchored" (fg0.y + fg0.h) (fg.y + fg.h)

(* The resize corners ride the frame's corners through every resize by
   their win-gravity, whether the client asks or a corner is dragged,
   growing or shrinking, and they cost the resize no request. *)
let test_corners_follow_frame () =
  let server, wm, ctx = plain_fixture () in
  let app = Stock.xterm server ~at:(Geom.point 300 300) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let corners () =
    Xid.Tbl.fold
      (fun corner c acc -> if c == client then Server.geometry server corner :: acc else acc)
      ctx.Ctx.corners []
  in
  let at_frame_corners what =
    let fg = Server.geometry server client.Ctx.frame in
    let placed = corners () in
    let cw, ch = match placed with g :: _ -> (g.Geom.w, g.Geom.h) | [] -> (0, 0) in
    check
      Alcotest.(list (pair int int))
      (what ^ ": corners at the frame's corners")
      (List.sort compare [ (0, 0); (fg.w - cw, 0); (0, fg.h - ch); (fg.w - cw, fg.h - ch) ])
      (List.sort compare (List.map (fun (g : Geom.rect) -> (g.x, g.y)) placed))
  in
  at_frame_corners "managed";
  let client_resize size =
    Client_app.resize_self app size;
    let r0 = Server.request_count server in
    ignore (Wm.step wm);
    Server.request_count server - r0
  in
  let grown = client_resize (500, 400) in
  at_frame_corners "grown by the client";
  let shrunk = client_resize (50, 40) in
  at_frame_corners "shrunk by the client";
  (* Six requests, as with corners that never moved: the frame, the client
     panel, the two buttons right of the title, the client and the
     synthetic ConfigureNotify. *)
  check Alcotest.int "requests to grow" 6 grown;
  check Alcotest.int "requests to shrink" 6 shrunk;
  let drag (dx, dy) =
    let se =
      List.fold_left
        (fun acc corner ->
          let g = Server.geometry server corner in
          match acc with
          | Some best when (Server.geometry server best).x + (Server.geometry server best).y
                           >= g.x + g.y -> acc
          | Some _ | None -> Some corner)
        None
        (Xid.Tbl.fold (fun corner c acc -> if c == client then corner :: acc else acc)
           ctx.Ctx.corners [])
      |> Option.get
    in
    let abs = Server.root_geometry server se in
    Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2) (abs.y + 2));
    ignore (Wm.step wm);
    Server.press_button server 1;
    ignore (Wm.step wm);
    Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 2 + dx) (abs.y + 2 + dy));
    ignore (Wm.step wm);
    Server.release_button server 1;
    ignore (Wm.step wm)
  in
  let size () =
    let g = Server.geometry server client.Ctx.frame in
    (g.w, g.h)
  in
  let w0, h0 = size () in
  drag (240, 80);
  let w1, h1 = size () in
  check Alcotest.bool "the drag grew the frame" true (w1 > w0 && h1 > h0);
  at_frame_corners "grown by a corner drag";
  drag (-60, -30);
  let w2, h2 = size () in
  check Alcotest.bool "the drag shrank the frame" true (w2 < w1 && h2 < h1);
  at_frame_corners "shrunk by a corner drag"

(* -------- drag-and-drop onto root icons (paper §4.1.3) -------- *)

let test_drop_on_root_icon () =
  let server, wm, ctx =
    plain_fixture
      ~extra:
        {|
swm*rootIcons: trash
Swm*panel.trash: button trashcan +C+0
swm*panel.trash.bindings: <Drop> : f.iconify
|}
      ()
  in
  let app = Stock.xterm server ~at:(Geom.point 300 300) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  (* Grab the window by its title and drop it on the trash icon. *)
  let title =
    Wobj.window
      (Option.get (Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"name"))
  in
  let t_abs = Server.root_geometry server title in
  Server.warp_pointer server ~screen:0 (Geom.point (t_abs.x + 2) (t_abs.y + 2));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let trash = List.hd (Ctx.screen ctx 0).Ctx.root_icons in
  let trash_abs = Server.root_geometry server (Wobj.window trash) in
  Server.warp_pointer server ~screen:0
    (Geom.point (trash_abs.x + 2) (trash_abs.y + 2));
  ignore (Wm.step wm);
  Server.release_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "dropped window iconified" true
    (client.Ctx.state = Prop.Iconic)

(* -------- focus policies -------- *)

let test_focus_follows_pointer () =
  let server, wm, _ctx = plain_fixture ~extra:"swm*focusPolicy: pointer\n" () in
  let a = Stock.xterm server ~at:(Geom.point 0 0) () in
  let b = Stock.xterm server ~at:(Geom.point 600 0) ~instance:"x2" () in
  ignore (Wm.step wm);
  let ca = client_of wm a and cb = client_of wm b in
  Server.warp_pointer server ~screen:0 (Geom.point 850 850);
  ignore (Wm.step wm);
  let enter c =
    (* A point on the frame itself (left edge, below the title row and the
       resize corner). *)
    let abs = Server.root_geometry server c.Ctx.frame in
    Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 3) (abs.y + 60));
    ignore (Wm.step wm)
  in
  enter ca;
  check Alcotest.bool "focus to a" true
    (Xid.equal (Server.input_focus server) ca.Ctx.cwin);
  enter cb;
  check Alcotest.bool "focus to b" true
    (Xid.equal (Server.input_focus server) cb.Ctx.cwin)

let test_click_to_focus () =
  let server, wm, _ctx = plain_fixture ~extra:"swm*focusPolicy: click\n" () in
  let a = Stock.xterm server ~at:(Geom.point 0 0) () in
  ignore (Wm.step wm);
  let ca = client_of wm a in
  (* Crossing into the frame does nothing under click policy... *)
  Server.warp_pointer server ~screen:0 (Geom.point 850 850);
  ignore (Wm.step wm);
  let abs = Server.root_geometry server ca.Ctx.frame in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 3) (abs.y + 60));
  ignore (Wm.step wm);
  check Alcotest.bool "no focus on crossing" false
    (Xid.equal (Server.input_focus server) ca.Ctx.cwin);
  (* ...clicking it focuses. *)
  Server.press_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "focus on click" true
    (Xid.equal (Server.input_focus server) ca.Ctx.cwin)

(* -------- multi-screen -------- *)

let test_multi_screen_management () =
  let server =
    Server.create
      ~screens:
        [ { Server.size = (1152, 900); monochrome = false };
          { Server.size = (1024, 768); monochrome = true } ]
      ()
  in
  let wm =
    Wm.start
      ~resources:
        [
          Templates.open_look;
          "swm*virtualDesktop: False\nswm*rootPanels:\n";
          (* Per-screen decoration via the monochrome component. *)
          "Swm*panel.monoPanel: button name +C+0 panel client +0+1\n\
           swm.monochrome.screen1*decoration: monoPanel\n";
        ]
      server
  in
  let a = Stock.xterm server () in
  let b = Stock.xterm server ~instance:"monoterm" () in
  (* b maps on screen 1. *)
  let b_conn = Client_app.conn b in
  let bwin = Client_app.window b in
  Server.reparent_window server b_conn bwin
    ~new_parent:(Server.root server ~screen:1) ~pos:(Geom.point 10 10);
  Server.map_window server b_conn bwin;
  ignore (Wm.step wm);
  let ca = client_of wm a and cb = client_of wm b in
  check Alcotest.int "a on screen 0" 0 ca.Ctx.screen;
  check Alcotest.int "b on screen 1" 1 cb.Ctx.screen;
  check Alcotest.string "colour screen decoration" "openLook"
    (Wobj.name (Option.get ca.Ctx.deco));
  check Alcotest.string "mono screen decoration" "monoPanel"
    (Wobj.name (Option.get cb.Ctx.deco))

(* -------- move started on the window, finished in the panner -------- *)

let test_move_into_panner () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  let ctx = Wm.ctx wm in
  let app = Stock.xterm server ~at:(Geom.point 200 200) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  (* Start an f.move from the title bar... *)
  let title =
    Wobj.window
      (Option.get (Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"name"))
  in
  let t_abs = Server.root_geometry server title in
  Server.warp_pointer server ~screen:0 (Geom.point (t_abs.x + 2) (t_abs.y + 2));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  (match ctx.Ctx.mode with
  | Ctx.Moving _ -> ()
  | _ -> Alcotest.fail "expected move");
  (* ...and drop it inside the panner at the spot for desktop (2400,1800). *)
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  let pc = Option.get (Wm.find_client wm vdesk.Ctx.panner_client) in
  let p_abs = Server.root_geometry server pc.Ctx.cwin in
  Server.warp_pointer server ~screen:0
    (Geom.point (p_abs.x + (2400 / 24)) (p_abs.y + (1800 / 24)));
  ignore (Wm.step wm);
  Server.release_button server 1;
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  check Alcotest.int "landed at desktop x" 2400 fg.x;
  check Alcotest.int "landed at desktop y" 1800 fg.y

let suite =
  [
    Alcotest.test_case "scrollbars created" `Quick test_scrollbars_created;
    Alcotest.test_case "scrollbars off by default" `Quick
      test_scrollbars_absent_by_default;
    Alcotest.test_case "scrollbar click pans" `Quick test_scrollbar_click_pans;
    Alcotest.test_case "thumb follows f.panTo" `Quick test_thumb_follows_function_pan;
    Alcotest.test_case "f.setLabel dynamic appearance" `Quick test_dynamic_label;
    Alcotest.test_case "f.setBindings dynamic behaviour" `Quick test_dynamic_bindings;
    Alcotest.test_case "f.setBindings cache stays bounded" `Quick
      test_binding_cache_bounded;
    Alcotest.test_case "f.raiseLower" `Quick test_raiselower;
    Alcotest.test_case "f.circulateUp cycles" `Quick test_circulate;
    Alcotest.test_case "f.warpTo" `Quick test_warpto;
    Alcotest.test_case "scrolling icon holder" `Quick test_scrolling_holder;
    Alcotest.test_case "drop on a root icon" `Quick test_drop_on_root_icon;
    Alcotest.test_case "min/max size hints enforced" `Quick test_size_hints_enforced;
    Alcotest.test_case "resize increments" `Quick test_resize_increments;
    Alcotest.test_case "outline (non-opaque) move" `Quick test_outline_move;
    Alcotest.test_case "corner resize anchors opposite edge" `Quick
      test_corner_resize_anchoring;
    Alcotest.test_case "corners follow the frame" `Quick test_corners_follow_frame;
    Alcotest.test_case "auto-raise via <Enter> binding" `Quick test_autoraise_policy;
    Alcotest.test_case "focus follows pointer" `Quick test_focus_follows_pointer;
    Alcotest.test_case "click to focus" `Quick test_click_to_focus;
    Alcotest.test_case "two screens, per-screen policy" `Quick
      test_multi_screen_management;
    Alcotest.test_case "move from glass into panner" `Quick test_move_into_panner;
  ]
