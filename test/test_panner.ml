module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Panner = Swm_core.Panner
module Templates = Swm_core.Templates
module Event = Swm_xlib.Event
module Functions = Swm_core.Functions
module Governor = Swm_core.Governor
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock
module Workload = Swm_clients.Workload

let check = Alcotest.check

(* OpenLook template: virtual desktop 3456x2700, panner on, scale 24. *)
let fixture () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  (server, wm, Wm.ctx wm)

let panner_client ctx wm =
  match (Ctx.screen ctx 0).Ctx.vdesk with
  | Some vdesk when not (Xid.is_none vdesk.Ctx.panner_client) ->
      Option.get (Wm.find_client wm vdesk.Ctx.panner_client)
  | _ -> Alcotest.fail "no panner"

let client_of wm app = Option.get (Wm.find_client wm (Client_app.window app))

let test_panner_is_managed_sticky_client () =
  let server, wm, ctx = fixture () in
  let pc = panner_client ctx wm in
  check Alcotest.bool "sticky" true pc.Ctx.sticky;
  check Alcotest.bool "reparented" false (Xid.equal pc.Ctx.frame pc.Ctx.cwin);
  check Alcotest.bool "visible" true (Server.is_viewable server pc.Ctx.cwin);
  check Alcotest.string "class" "Panner" pc.Ctx.class_

let test_panner_size_follows_scale () =
  let server, wm, ctx = fixture () in
  let pc = panner_client ctx wm in
  let g = Server.geometry server pc.Ctx.cwin in
  check Alcotest.int "width = desktop/scale" (3456 / 24) g.w;
  check Alcotest.int "height = desktop/scale" (2700 / 24) g.h;
  ignore ctx

let test_miniatures_track_clients () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  let client = client_of wm app in
  (* Find the miniature for our client. *)
  let minis =
    List.filter_map
      (fun w -> Option.map (fun c -> (w, c)) (Panner.client_of_miniature ctx w))
      (Server.children_of server pc.Ctx.cwin)
  in
  (match List.find_opt (fun (_, c) -> c == client) minis with
  | Some (mini, _) ->
      let mg = Server.geometry server mini in
      let fg = Server.geometry server client.Ctx.frame in
      check Alcotest.int "mini x = frame x / scale" (fg.x / 24) mg.x;
      check Alcotest.int "mini y" (fg.y / 24) mg.y
  | None -> Alcotest.fail "no miniature for client")

let test_miniature_hidden_for_iconic_and_sticky () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pc = panner_client ctx wm in
  let count_minis () =
    List.length
      (List.filter
         (fun w -> Panner.client_of_miniature ctx w <> None)
         (Server.children_of server pc.Ctx.cwin))
  in
  check Alcotest.int "one miniature" 1 (count_minis ());
  Swm_core.Icons.iconify ctx client;
  Panner.refresh ctx ~screen:0;
  check Alcotest.int "iconic client not shown" 0 (count_minis ());
  Swm_core.Icons.deiconify ctx client;
  Panner.refresh ctx ~screen:0;
  check Alcotest.int "deiconified client shown" 1 (count_minis ());
  Vdesk.set_sticky ctx client true;
  Panner.refresh ctx ~screen:0;
  check Alcotest.int "sticky client not shown" 0 (count_minis ());
  check Alcotest.int "no miniature left in the table" 0
    (Xid.Tbl.length ctx.Ctx.panner_minis)

let test_pan_via_button1 () =
  let server, wm, ctx = fixture () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  (* Press button 1 in the panner interior at a spot corresponding to
     desktop position (1200, 960). *)
  let origin =
    Server.translate_coordinates server ~src:pc.Ctx.cwin
      ~dst:(Server.root server ~screen:0) (Geom.point 0 0)
  in
  Server.warp_pointer server ~screen:0
    (Geom.point (origin.px + (1200 / 24)) (origin.py + (960 / 24)));
  ignore (Wm.step wm);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let o = Vdesk.offset ctx ~screen:0 in
  let sw, sh = Server.screen_size server ~screen:0 in
  check Alcotest.int "viewport centred on press x" (1200 - (sw / 2)) o.px;
  check Alcotest.int "viewport centred on press y" (960 - (sh / 2)) o.py

let test_move_window_via_miniature () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pc = panner_client ctx wm in
  let mini =
    List.find
      (fun w ->
        match Panner.client_of_miniature ctx w with
        | Some c -> c == client
        | None -> false)
      (Server.children_of server pc.Ctx.cwin)
  in
  (* Button 2 on the miniature starts a move... *)
  let mini_abs = Server.root_geometry server mini in
  Server.warp_pointer server ~screen:0 (Geom.point (mini_abs.x + 1) (mini_abs.y + 1));
  ignore (Wm.step wm);
  Server.press_button server 2;
  ignore (Wm.step wm);
  (match ctx.Ctx.mode with
  | Ctx.Moving _ -> ()
  | _ -> Alcotest.fail "expected interactive move");
  (* ... dragging within the panner repositions on the whole desktop. *)
  let panner_abs = Server.root_geometry server pc.Ctx.cwin in
  Server.warp_pointer server ~screen:0
    (Geom.point (panner_abs.x + (2400 / 24)) (panner_abs.y + (1800 / 24)));
  ignore (Wm.step wm);
  Server.release_button server 2;
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  check Alcotest.int "dropped at desktop x" 2400 fg.x;
  check Alcotest.int "dropped at desktop y" 1800 fg.y;
  check Alcotest.bool "mode idle again" true (ctx.Ctx.mode = Ctx.Idle)

let test_move_crossing_out_of_panner () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let pc = panner_client ctx wm in
  let mini =
    List.find
      (fun w ->
        match Panner.client_of_miniature ctx w with
        | Some c -> c == client
        | None -> false)
      (Server.children_of server pc.Ctx.cwin)
  in
  let mini_abs = Server.root_geometry server mini in
  Server.warp_pointer server ~screen:0 (Geom.point (mini_abs.x + 1) (mini_abs.y + 1));
  ignore (Wm.step wm);
  Server.press_button server 2;
  ignore (Wm.step wm);
  (* Drag out of the panner: now the window follows the pointer at full
     scale on the visible desktop. *)
  Server.warp_pointer server ~screen:0 (Geom.point 300 200);
  ignore (Wm.step wm);
  Server.release_button server 2;
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  let o = Vdesk.offset ctx ~screen:0 in
  check Alcotest.bool "near the pointer's desktop position" true
    (abs (fg.x - (300 + o.px)) < 40 && abs (fg.y - (200 + o.py)) < 40)

(* A skipped reconcile leaves a destroyed client's miniature behind; button
   2 on it must not start a move of the dead client (whose frame is gone). *)
let test_stale_miniature_is_inert () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let mini =
    List.find
      (fun w ->
        match Panner.client_of_miniature ctx w with Some c -> c == client | None -> false)
      (Server.children_of server (panner_client ctx wm).Ctx.cwin)
  in
  ctx.Ctx.tier <- Ctx.Tier_essential;
  Client_app.destroy app;
  ignore (Wm.step wm);
  let xerrors () =
    Swm_xlib.Metrics.counter_value (Server.metrics server) "wm.xerrors"
  in
  let before = xerrors () in
  let abs = Server.root_geometry server mini in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 1) (abs.y + 1));
  ignore (Wm.step wm);
  Server.press_button server 2;
  ignore (Wm.step wm);
  check Alcotest.int "no X error" before (xerrors ());
  check Alcotest.bool "still idle" true (ctx.Ctx.mode = Ctx.Idle);
  ctx.Ctx.tier <- Ctx.Tier_full

let test_panner_resize_resizes_desktop () =
  let server, wm, ctx = fixture () in
  ignore (Wm.step wm);
  let pc = panner_client ctx wm in
  Swm_core.Decoration.client_resized ctx pc (200, 150);
  Panner.panner_resized ctx pc (200, 150);
  match (Ctx.screen ctx 0).Ctx.vdesk with
  | Some vdesk ->
      check Alcotest.bool "desktop resized" true (vdesk.Ctx.vsize = (200 * 24, 150 * 24));
      ignore server
  | None -> Alcotest.fail "vdesk"

(* -------- the reconcile against its spec -------- *)

let scale = 24

let exec ctx ?client text =
  match Functions.execute_string ctx (Functions.invocation ?client ~screen:0 ()) text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" text e

(* What the panner should show, computed here from the frames: the viewport
   outline at the bottom, then one miniature per non-sticky, Normal-state
   client on the current desktop, in the frames' stacking order, each at
   its frame's geometry divided by the scale.  [None] marks the outline. *)
let expected ctx =
  let server = ctx.Ctx.server in
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  let div (g : Geom.rect) =
    Geom.rect (g.x / scale) (g.y / scale) (max 1 (g.w / scale)) (max 1 (g.h / scale))
  in
  (None, div (Vdesk.viewport ctx ~screen:0))
  :: List.filter_map
       (fun frame ->
         match Xid.Tbl.find_opt ctx.Ctx.frames frame with
         | Some c
           when (not c.Ctx.sticky) && c.Ctx.state = Prop.Normal
                && not (Xid.equal c.Ctx.cwin vdesk.Ctx.panner_client) ->
             Some (Some c, div (Server.geometry server frame))
         | Some _ | None -> None)
       (Server.children_of server vdesk.Ctx.vwins.(vdesk.Ctx.current))

(* [None] when the panner shows exactly [expected ctx], else what differs. *)
let content_error ctx =
  let server = ctx.Ctx.server in
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  let children = Server.children_of server vdesk.Ctx.panner_client in
  let want = expected ctx in
  let name = function Some c -> c.Ctx.instance | None -> "outline" in
  if List.length children <> List.length want then
    Some
      (Printf.sprintf "%d panner children, want %d" (List.length children)
         (List.length want))
  else if Xid.Tbl.length ctx.Ctx.panner_minis <> List.length want - 1 then
    Some
      (Printf.sprintf "%d miniatures in the table, want %d"
         (Xid.Tbl.length ctx.Ctx.panner_minis) (List.length want - 1))
  else
    List.find_map
      (fun (win, (who, (r : Geom.rect))) ->
        let g = Server.geometry server win in
        let shows =
          match (who, Panner.client_of_miniature ctx win) with
          | None, None -> true
          | Some c, Some c' -> c == c'
          | Some _, None | None, Some _ -> false
        in
        if not shows then Some (Printf.sprintf "%s out of place" (name who))
        else if not (Server.is_mapped server win) then
          Some (Printf.sprintf "%s unmapped" (name who))
        else if not (Geom.rect_equal g r) then
          Some
            (Printf.sprintf "%s at %dx%d+%d+%d, want %dx%d+%d+%d" (name who) g.w g.h
               g.x g.y r.w r.h r.x r.y)
        else None)
      (List.combine children want)

type op =
  | Manage of int * int
  | Destroy of int
  | Withdraw of int
  | Map_request of int
  | Fn of string * int  (** an f.* line run on a client *)
  | Circulate of bool
  | Move of int * int * int  (** client ConfigureRequests *)
  | Resize of int * int * int
  | Stack of int * bool
  | Retitle of int * int
  | Pan of int * int
  | Desktop of int
  | Degraded of op  (** the op at [Tier_essential], then back to [Tier_full] *)
  | Batch of op list  (** several ops before one step: damage coalesces *)
  | Drag of int * int * int  (** f.move, one motion step, release *)
  | SetLabel of int  (** f.setLabel(name,...) with a label of this many chars *)

let rec show_op = function
  | Manage (x, y) -> Printf.sprintf "manage at %d,%d" x y
  | Destroy i -> Printf.sprintf "destroy %d" i
  | Withdraw i -> Printf.sprintf "withdraw %d" i
  | Map_request i -> Printf.sprintf "map %d" i
  | Fn (f, i) -> Printf.sprintf "%s on %d" f i
  | Circulate up -> if up then "f.circulateup" else "f.circulatedown"
  | Move (i, x, y) -> Printf.sprintf "move %d to %d,%d" i x y
  | Resize (i, w, h) -> Printf.sprintf "resize %d to %dx%d" i w h
  | Stack (i, above) -> Printf.sprintf "stack %d %s" i (if above then "above" else "below")
  | Retitle (i, n) -> Printf.sprintf "retitle %d with %d chars" i n
  | Pan (x, y) -> Printf.sprintf "f.panto(%d,%d)" x y
  | Desktop d -> Printf.sprintf "f.desktop(%d)" d
  | Degraded op -> "degraded: " ^ show_op op
  | Batch ops -> "batch [" ^ String.concat ", " (List.map show_op ops) ^ "]"
  | Drag (i, dx, dy) -> Printf.sprintf "drag %d by %d,%d" i dx dy
  | SetLabel n -> Printf.sprintf "f.setLabel(name,<%d chars>)" n

let op_gen =
  let open QCheck2.Gen in
  let client = int_range 0 15 in
  let base =
    oneof
      [
        map2 (fun x y -> Manage (x, y)) (int_range 0 1100) (int_range 0 850);
        map (fun i -> Destroy i) client;
        map (fun i -> Withdraw i) client;
        map (fun i -> Map_request i) client;
        map2
          (fun f i -> Fn (f, i))
          (oneofl
             [ "f.raise"; "f.lower"; "f.raiselower"; "f.iconify"; "f.deiconify";
               "f.stick"; "f.unstick"; "f.save f.zoom"; "f.zoom" ])
          client;
        map (fun up -> Circulate up) bool;
        map3 (fun i x y -> Move (i, x, y)) client (int_range (-200) 1100)
          (int_range (-200) 850);
        map3 (fun i w h -> Resize (i, w, h)) client (int_range 20 900) (int_range 20 700);
        map2 (fun i above -> Stack (i, above)) client bool;
        map2 (fun i n -> Retitle (i, n)) client (int_range 1 200);
        map2 (fun x y -> Pan (x, y)) (int_range (-100) 2500) (int_range (-100) 1900);
        map (fun d -> Desktop d) (int_range 0 1);
        map (fun n -> SetLabel n) (int_range 1 120);
      ]
  in
  frequency
    [
      (10, base);
      (1, map (fun op -> Degraded op) base);
      (3, map (fun ops -> Batch ops) (list_size (int_range 2 4) base));
      (1, map3 (fun i dx dy -> Drag (i, dx, dy)) client (int_range (-300) 300)
            (int_range (-300) 300));
    ]

(* [None] when [panner_minis] and the clients' [mini] fields are inverses. *)
let inverse_error ctx =
  let bad =
    Xid.Tbl.fold
      (fun mini (c : Ctx.client) acc ->
        if Xid.equal c.Ctx.mini mini then acc
        else Some (Printf.sprintf "miniature of %s not its client's mini" c.Ctx.instance))
      ctx.Ctx.panner_minis None
  in
  match bad with
  | Some _ -> bad
  | None ->
      List.find_map
        (fun (c : Ctx.client) ->
          if Xid.is_none c.Ctx.mini then None
          else
            match Xid.Tbl.find_opt ctx.Ctx.panner_minis c.Ctx.mini with
            | Some c' when c' == c -> None
            | Some _ | None ->
                Some (Printf.sprintf "%s's mini not in panner_minis" c.Ctx.instance))
        (Ctx.all_clients ctx)

let prop_reconcile_matches_spec =
  QCheck2.Test.make ~name:"panner reconcile matches its spec" ~count:100
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let server = Server.create () in
      let wm =
        Wm.start
          ~resources:[ Templates.open_look; "swm*rootPanels:\nswm*desktops: 2\n" ]
          server
      in
      let ctx = Wm.ctx wm in
      let launch x y =
        Client_app.launch server
          (Client_app.spec ~us_position:true
             ~instance:(Printf.sprintf "c%d_%d" x y)
             (Geom.rect x y 300 200))
      in
      let apps = ref (List.init 4 (fun i -> launch (60 + (i * 250)) (40 + (i * 150)))) in
      ignore (Wm.step wm);
      let with_app i f =
        match !apps with
        | [] -> ()
        | l -> f (List.nth l (i mod List.length l))
      in
      let with_client i f =
        with_app i (fun app -> Option.iter f (Wm.find_client wm (Client_app.window app)))
      in
      (* The WM runs every f.* under its X-error guard: inside a batch a
         function can meet a window destroyed since the last step. *)
      let exec ctx ?client text =
        ignore (Swm_core.Xguard.protect ctx ~where:"test" (fun () -> exec ctx ?client text))
      in
      let rec apply = function
        | Manage (x, y) -> apps := !apps @ [ launch x y ]
        | Destroy i ->
            with_app i (fun app ->
                Client_app.destroy app;
                apps := List.filter (fun a -> a != app) !apps)
        | Withdraw i -> with_app i Client_app.withdraw
        | Map_request i ->
            with_app i (fun app ->
                Server.map_window server (Client_app.conn app) (Client_app.window app))
        | Fn (f, i) -> with_client i (fun client -> exec ctx ~client f)
        | Circulate up -> exec ctx (if up then "f.circulateup" else "f.circulatedown")
        | Move (i, x, y) -> with_app i (fun app -> Client_app.move_self app (Geom.point x y))
        | Resize (i, w, h) -> with_app i (fun app -> Client_app.resize_self app (w, h))
        | Stack (i, above) ->
            with_app i (fun app ->
                Server.configure_window server (Client_app.conn app) (Client_app.window app)
                  { Event.no_changes with
                    cstack = Some (if above then Event.Above else Event.Below) })
        | Retitle (i, n) -> with_app i (fun app -> Client_app.set_name app (String.make n 'n'))
        | Pan (x, y) -> exec ctx (Printf.sprintf "f.panto(%d,%d)" x y)
        | Desktop d -> exec ctx (Printf.sprintf "f.desktop(%d)" d)
        | Degraded op ->
            ctx.Ctx.tier <- Ctx.Tier_essential;
            apply op;
            ignore (Wm.step wm);
            for _ = 1 to Governor.restore_calm_ticks do
              Governor.tick ctx
            done;
            if ctx.Ctx.tier <> Ctx.Tier_full then Alcotest.fail "tier not restored"
        | Batch ops -> List.iter apply ops
        | SetLabel n -> exec ctx (Printf.sprintf "f.setLabel(name,%s)" (String.make n 'L'))
        | Drag (i, dx, dy) ->
            with_client i (fun client ->
                exec ctx ~client "f.move";
                match ctx.Ctx.mode with
                | Ctx.Moving _ ->
                    let p = Server.pointer_pos server in
                    Server.warp_pointer server ~screen:0 (Geom.point (p.px + dx) (p.py + dy));
                    ignore (Wm.step wm);
                    Server.release_button server 1
                | Ctx.Idle | Ctx.Resizing _ | Ctx.Prompting _ -> ())
      in
      List.iteri
        (fun n op ->
          apply op;
          ignore (Wm.step wm);
          let fail what e = QCheck2.Test.fail_reportf "op %d (%s): %s: %s" n (show_op op) what e in
          Option.iter (fail "after the op") (content_error ctx);
          Option.iter (fail "map and panner_minis") (inverse_error ctx);
          let r0 = Server.request_count server in
          Panner.refresh ctx ~screen:0;
          let again = Server.request_count server - r0 in
          if again <> 0 then fail "second refresh" (Printf.sprintf "%d requests" again);
          Option.iter (fail "after a second refresh") (content_error ctx);
          Option.iter (fail "map and panner_minis after a refresh") (inverse_error ctx))
        ops;
      true)

(* 50 clients on the OpenLook desktop, optionally with scrollbars. *)
let fixture_50 ?(extra = "") () =
  let server = Server.create () in
  let wm =
    Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ^ extra ] server
  in
  ignore
    (Workload.launch server
       { Workload.default_params with count = 50; area = (3000, 2400) });
  ignore (Wm.step wm);
  (server, wm, Wm.ctx wm)

let refresh_cost server ctx =
  let r0 = Server.request_count server in
  Panner.refresh ctx ~screen:0;
  Server.request_count server - r0

let test_unchanged_refresh_is_free () =
  List.iter
    (fun extra ->
      let server, _wm, ctx = fixture_50 ~extra () in
      check Alcotest.bool "fixture has miniatures" true
        (Xid.Tbl.length ctx.Ctx.panner_minis > 40);
      check Alcotest.(option string) "content" None (content_error ctx);
      check Alcotest.int ("unchanged refresh " ^ extra) 0 (refresh_cost server ctx))
    [ ""; "swm*scrollbars: True\n" ]

let test_one_change_one_request () =
  let server, _wm, ctx = fixture_50 () in
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  let frames () =
    List.filter
      (fun f ->
        match Xid.Tbl.find_opt ctx.Ctx.frames f with
        | Some c -> c.Ctx.state = Prop.Normal && not c.Ctx.sticky
        | None -> false)
      (Server.children_of server vdesk.Ctx.vwins.(0))
  in
  let cost what change =
    change ();
    check Alcotest.int what 1 (refresh_cost server ctx);
    check Alcotest.(option string) (what ^ ": content") None (content_error ctx)
  in
  cost "raise" (fun () -> Server.raise_window server ctx.Ctx.conn (List.hd (frames ())));
  cost "lower" (fun () ->
      Server.lower_window server ctx.Ctx.conn (List.hd (List.rev (frames ()))));
  cost "pan" (fun () -> Vdesk.pan_to ctx ~screen:0 (Geom.point 1200 900));
  cost "move" (fun () ->
      let f = List.nth (frames ()) 10 in
      let g = Server.geometry server f in
      Server.move_resize server ctx.Ctx.conn f { g with x = g.x + 48; y = g.y + 48 })

(* The geometry of [client]'s miniature. *)
let mini_geometry server ctx wm client =
  Server.geometry server
    (List.find
       (fun w ->
         match Panner.client_of_miniature ctx w with Some c -> c == client | None -> false)
       (Server.children_of server (panner_client ctx wm).Ctx.cwin))

let test_zoom_updates_miniature () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let before = mini_geometry server ctx wm client in
  exec ctx ~client "f.save f.zoom";
  ignore (Wm.step wm);
  let fg = Server.geometry server client.Ctx.frame in
  check Alcotest.(list int) "zoomed frame" [ 0; 0; 1150; 898 ] [ fg.x; fg.y; fg.w; fg.h ];
  let m = mini_geometry server ctx wm client in
  check Alcotest.(list int) "zoomed miniature" [ 0; 0; 47; 37 ] [ m.x; m.y; m.w; m.h ];
  exec ctx ~client "f.zoom";
  ignore (Wm.step wm);
  check Alcotest.bool "restored miniature" true
    (Geom.rect_equal before (mini_geometry server ctx wm client))

let test_retitle_updates_miniature () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 480 240) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let mini_width () = (mini_geometry server ctx wm client).w in
  check Alcotest.int "frame width" 494 (Server.geometry server client.Ctx.frame).w;
  check Alcotest.int "miniature width" 20 (mini_width ());
  Client_app.set_name app (String.make 200 'w');
  ignore (Wm.step wm);
  check Alcotest.int "widened frame" 1738 (Server.geometry server client.Ctx.frame).w;
  check Alcotest.int "widened miniature" 72 (mini_width ())

let suite =
  [
    Alcotest.test_case "panner is a managed sticky client" `Quick
      test_panner_is_managed_sticky_client;
    Alcotest.test_case "panner size from scale" `Quick test_panner_size_follows_scale;
    Alcotest.test_case "miniatures track clients" `Quick test_miniatures_track_clients;
    Alcotest.test_case "iconic clients have no miniature" `Quick
      test_miniature_hidden_for_iconic_and_sticky;
    Alcotest.test_case "button-1 pans" `Quick test_pan_via_button1;
    Alcotest.test_case "button-2 moves via miniature" `Quick
      test_move_window_via_miniature;
    Alcotest.test_case "move crossing out of the panner" `Quick
      test_move_crossing_out_of_panner;
    Alcotest.test_case "a stale miniature does not start a move" `Quick
      test_stale_miniature_is_inert;
    Alcotest.test_case "resizing panner resizes desktop" `Quick
      test_panner_resize_resizes_desktop;
    QCheck_alcotest.to_alcotest prop_reconcile_matches_spec;
    Alcotest.test_case "an unchanged refresh issues no request" `Quick
      test_unchanged_refresh_is_free;
    Alcotest.test_case "one change costs one request" `Quick test_one_change_one_request;
    Alcotest.test_case "f.zoom updates the miniature" `Quick test_zoom_updates_miniature;
    Alcotest.test_case "a widening retitle updates the miniature" `Quick
      test_retitle_updates_miniature;
  ]
