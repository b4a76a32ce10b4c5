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
        Option.bind (Config.query1 ctx.cfg ~screen "panner") Swm_xrdb.Xrdb.parse_bool
        = Some true
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
            ~geom:(Geom.rect pos.px pos.py pw ph)
            ~event_mask:
              [ Event.Button_press_mask; Event.Button_release_mask;
                Event.Pointer_motion_mask ]
            ~background:'.' ()
        in
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_class
          (Prop.Wm_class { instance = "panner"; class_ = "Panner" });
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_name
          (Prop.String "Virtual Desktop");
        (* swm placed the panner deliberately: keep that position. *)
        Server.change_property ctx.server ctx.conn win ~name:Prop.wm_normal_hints
          (Prop.Size_hints { Prop.default_size_hints with us_position = true });
        vdesk.panner_client <- win;
        vdesk.panner_scale <- scale;
        Ctx.damage_full ctx ~screen;
        Some win
      end

let vdesk_of (ctx : Ctx.t) ~screen = (Ctx.screen ctx screen).vdesk

let is_panner (ctx : Ctx.t) (client : Ctx.client) =
  match vdesk_of ctx ~screen:client.screen with
  | Some vdesk -> Xid.equal vdesk.panner_client client.cwin
  | None -> false

(* A desktop rectangle as the panner shows it. *)
let scaled scale (r : Geom.rect) =
  Geom.rect (r.x / scale) (r.y / scale) (max 1 (r.w / scale)) (max 1 (r.h / scale))

let shown (ctx : Ctx.t) ~screen (client : Ctx.client) =
  client.screen = screen && (not client.sticky) && client.state = Prop.Normal
  && not (is_panner ctx client)

(* The longest increasing subsequence of a permutation of [0 .. n-1], as a
   mask over its values (patience sorting, O(n log n)). *)
let longest_in_order (perm : int array) =
  let n = Array.length perm in
  let tails = Array.make n 0 and prev = Array.make n (-1) and len = ref 0 in
  Array.iteri
    (fun i v ->
      let lo = ref 0 and hi = ref !len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if perm.(tails.(mid)) < v then lo := mid + 1 else hi := mid
      done;
      if !lo > 0 then prev.(i) <- tails.(!lo - 1);
      tails.(!lo) <- i;
      if !lo = !len then incr len)
    perm;
  let keep = Array.make n false in
  let rec mark i =
    if i >= 0 then begin
      keep.(perm.(i)) <- true;
      mark prev.(i)
    end
  in
  if !len > 0 then mark tails.(!len - 1);
  keep

let create_mini (ctx : Ctx.t) ~panner r (client : Ctx.client) =
  let mini =
    Server.create_window ctx.server ctx.conn ~parent:panner ~geom:r
      ~event_mask:[ Event.Button_press_mask; Event.Button_release_mask ]
      ~background:'m' ()
  in
  Server.map_window ctx.server ctx.conn mini;
  Xid.Tbl.replace ctx.panner_minis mini client;
  client.mini <- mini

let destroy_mini (ctx : Ctx.t) mini =
  (match Xid.Tbl.find_opt ctx.panner_minis mini with
  | Some (c : Ctx.client) when Xid.equal c.mini mini -> c.mini <- Xid.none
  | Some _ | None -> ());
  Xid.Tbl.remove ctx.panner_minis mini;
  if Server.window_exists ctx.server mini then Server.destroy_window ctx.server mini

let frames_examined (ctx : Ctx.t) n = Metrics.add ctx.c_panner_frames n

(* Bring the panner's children to the wanted content and pay only for the
   difference.  The wanted content, bottom to top, is the viewport outline
   and then one miniature per shown client in the stacking order of the
   frames, each at its frame's geometry divided by the scale. *)
let reconcile (ctx : Ctx.t) ~screen (vdesk : Ctx.vdesk) =
  let server = ctx.server and panner = vdesk.panner_client in
  let scale = vdesk.panner_scale in
  let desktop = Server.children_of server vdesk.vwins.(vdesk.current) in
  let children = Server.children_of server panner in
  frames_examined ctx (List.length desktop + List.length children);
  let wanted =
    Array.of_list
      (List.filter_map
         (fun frame ->
           match Xid.Tbl.find_opt ctx.frames frame with
           | Some client when shown ctx ~screen client -> Some client
           | Some _ | None -> None)
         desktop)
  in
  (* Slot 0 holds the outline, slot i the miniature of [wanted.(i - 1)]. *)
  let slots = Array.make (Array.length wanted + 1) Xid.none in
  let slot_of = Xid.Tbl.create (Array.length wanted) in
  Array.iteri (fun i (c : Ctx.client) -> Xid.Tbl.replace slot_of c.cwin (i + 1)) wanted;
  (* Keep each miniature whose client is still shown; destroy the rest. *)
  List.iter
    (fun child ->
      if Xid.equal child vdesk.panner_outline then slots.(0) <- child
      else
        let keep =
          match Xid.Tbl.find_opt ctx.panner_minis child with
          | Some (c : Ctx.client) -> (
              match Xid.Tbl.find_opt slot_of c.cwin with
              | Some i when wanted.(i - 1) == c && Xid.is_none slots.(i) ->
                  slots.(i) <- child;
                  true
              | Some _ | None -> false)
          | None -> false
        in
        if not keep then destroy_mini ctx child)
    children;
  (* Create what is missing; move and resize what changed. *)
  Array.iteri
    (fun i win ->
      let r =
        if i = 0 then scaled scale (Vdesk.viewport ctx ~screen)
        else scaled scale (Server.geometry server wanted.(i - 1).frame)
      in
      if not (Xid.is_none win) then Ctx.place ctx win r
      else if i = 0 then begin
        let outline = Server.create_window server ctx.conn ~parent:panner ~geom:r ~border:1 () in
        Server.map_window server ctx.conn outline;
        vdesk.panner_outline <- outline;
        slots.(0) <- outline
      end
      else begin
        create_mini ctx ~panner r wanted.(i - 1);
        slots.(i) <- wanted.(i - 1).mini
      end)
    slots;
  (* Restack: the longest run already in order stays; every other window
     goes directly above its wanted predecessor, bottom up. *)
  let rec in_order i = function
    | [] -> i = Array.length slots
    | w :: rest -> i < Array.length slots && Xid.equal w slots.(i) && in_order (i + 1) rest
  in
  let current = Server.children_of server panner in
  if not (in_order 0 current) then begin
    let slot w =
      if Xid.equal w vdesk.panner_outline then 0
      else Xid.Tbl.find slot_of (Xid.Tbl.find ctx.panner_minis w).cwin
    in
    frames_examined ctx (List.length current);
    let keep = longest_in_order (Array.of_list (List.map slot current)) in
    Array.iteri
      (fun i win ->
        if not keep.(i) then
          if i = 0 then Server.lower_window server ctx.conn win
          else
            Server.configure_window server ctx.conn win
              { Event.no_changes with cstack = Some Event.Above; csibling = Some slots.(i - 1) })
      slots
  end

(* The panner window of a screen that shows one. *)
let live_panner (ctx : Ctx.t) ~screen =
  match vdesk_of ctx ~screen with
  | Some vdesk
    when (not (Xid.is_none vdesk.panner_client))
         && Server.window_exists ctx.server vdesk.panner_client ->
      Some vdesk
  | Some _ | None -> None

let full (ctx : Ctx.t) ~screen =
  Scrollbar.refresh ctx ~screen;
  match live_panner ctx ~screen with
  | Some vdesk -> reconcile ctx ~screen vdesk
  | None -> ()

let timed (ctx : Ctx.t) f =
  (let tracer = Server.tracer ctx.server in
   if Swm_xlib.Tracing.enabled tracer then
     Swm_xlib.Tracing.span tracer "panner.refresh"
   else fun f -> f ())
  @@ fun () ->
  let t0 = Metrics.now_mono_ns () in
  f ();
  Metrics.observe ctx.h_panner_refresh_ns (Metrics.now_mono_ns () - t0)

let skipped (ctx : Ctx.t) =
  (* Degraded: the panner is a luxury redraw.  The governor re-runs
     refresh on every screen when it restores the full tier. *)
  Metrics.incr (Metrics.counter (Server.metrics ctx.server) "governor.refreshes_skipped")

let refresh (ctx : Ctx.t) ~screen =
  if ctx.tier <> Ctx.Tier_full then skipped ctx else timed ctx (fun () -> full ctx ~screen)

(* -------- the step reconcile -------- *)

let managed (ctx : Ctx.t) (c : Ctx.client) =
  match Xid.Tbl.find_opt ctx.clients c.cwin with Some c' -> c' == c | None -> false

(* The full reconcile's rule for one client: managed, shown, and framed on
   the current desktop. *)
let wanted (ctx : Ctx.t) ~screen (vdesk : Ctx.vdesk) (c : Ctx.client) =
  managed ctx c && shown ctx ~screen c
  && Server.window_exists ctx.server c.frame
  && Xid.equal (Server.parent_of ctx.server c.frame) vdesk.vwins.(vdesk.current)

(* A client under an interactive move or resize is placed when the gesture
   ends (its commit records the geometry again), not after every motion. *)
let in_gesture (ctx : Ctx.t) c =
  match ctx.mode with
  | Ctx.Moving { m_client; _ } -> m_client == c
  | Ctx.Resizing { r_client; _ } -> r_client == c
  | Ctx.Idle | Ctx.Prompting _ -> false

(* Whether [c]'s frame is the topmost frame with a miniature or about to
   get one, walking the desktop down from the top. *)
let topmost_shown (ctx : Ctx.t) ~screen (vdesk : Ctx.vdesk) (c : Ctx.client) examined =
  let rec walk frame =
    if Xid.is_none frame then false
    else begin
      incr examined;
      if Xid.equal frame c.frame then true
      else
        match Xid.Tbl.find_opt ctx.frames frame with
        | Some other when shown ctx ~screen other -> false
        | Some _ | None -> walk (Server.below_sibling ctx.server frame)
    end
  in
  walk (Server.top_child ctx.server vdesk.vwins.(vdesk.current))

(* One screen's damage, visiting only the damaged clients.  Leavers lose
   their miniature; restacks replay in the order they happened (a raise
   puts the miniature on top, a lower directly above the outline); moved
   clients' miniatures are placed, except mid-gesture; a single joiner
   whose frame is the topmost shown frame gets its miniature on top.
   Anything else (more joiners, a joiner lower down, a panner never
   reconciled) takes the full reconcile. *)
let apply (ctx : Ctx.t) ~screen (vdesk : Ctx.vdesk) (d : Ctx.damage) =
  let server = ctx.server and panner = vdesk.panner_client in
  let scale = vdesk.panner_scale in
  let examined = ref 0 in
  let joiners =
    List.fold_left
      (fun joiners (c : Ctx.client) ->
        incr examined;
        let want = wanted ctx ~screen vdesk c in
        if Xid.is_none c.mini then
          if want && not (List.memq c joiners) then c :: joiners else joiners
        else begin
          if not want then destroy_mini ctx c.mini;
          joiners
        end)
      [] d.d_members
  in
  match joiners with
  | _ :: _ :: _ -> reconcile ctx ~screen vdesk
  | [ c ] when not (topmost_shown ctx ~screen vdesk c examined) -> reconcile ctx ~screen vdesk
  | ([] | [ _ ]) as joiners ->
      List.iter
        (fun ((c : Ctx.client), mode) ->
          if not (Xid.is_none c.mini) then begin
            incr examined;
            match mode with
            | Event.Above when Xid.equal (Server.top_child server panner) c.mini -> ()
            | Event.Above -> Server.raise_window server ctx.conn c.mini
            | Event.Below
              when Xid.equal (Server.below_sibling server c.mini) vdesk.panner_outline ->
                ()
            | Event.Below ->
                Server.configure_window server ctx.conn c.mini
                  { Event.no_changes with
                    cstack = Some Event.Above; csibling = Some vdesk.panner_outline }
          end)
        (List.rev d.d_restacks);
      List.iter
        (fun (c : Ctx.client) ->
          if not (Xid.is_none c.mini || in_gesture ctx c) then begin
            incr examined;
            Ctx.place ctx c.mini (scaled scale (Server.geometry server c.frame))
          end)
        d.d_moved;
      List.iter
        (fun (c : Ctx.client) ->
          create_mini ctx ~panner (scaled scale (Server.geometry server c.frame)) c)
        joiners;
      if d.d_viewport then
        Ctx.place ctx vdesk.panner_outline (scaled scale (Vdesk.viewport ctx ~screen));
      frames_examined ctx !examined

let dirty (d : Ctx.damage) =
  d.d_full || d.d_viewport
  || match (d.d_restacks, d.d_members, d.d_moved) with [], [], [] -> false | _ -> true

let apply_damage (ctx : Ctx.t) =
  Array.iter
    (fun (scr : Ctx.screen_state) ->
      let d = scr.damage in
      if dirty d then begin
        scr.damage <- Ctx.no_damage ();
        let screen = scr.index in
        if ctx.tier <> Ctx.Tier_full then skipped ctx
        else
          timed ctx @@ fun () ->
          match
            Xguard.protect ctx ~where:"panner.damage" @@ fun () ->
            if d.d_full then full ctx ~screen
            else begin
              if d.d_viewport then Scrollbar.refresh ctx ~screen;
              match live_panner ctx ~screen with
              | Some vdesk when Xid.is_none vdesk.panner_outline -> reconcile ctx ~screen vdesk
              | Some vdesk -> apply ctx ~screen vdesk d
              | None -> ()
            end
          with
          | Some () -> ()
          | None -> (* Half applied: resync in full at the next step. *)
              Ctx.damage_full ctx ~screen
      end)
    ctx.screens

let client_of_miniature (ctx : Ctx.t) win =
  match Xid.Tbl.find_opt ctx.panner_minis win with
  | Some c when managed ctx c -> Some c
  | Some _ | None -> None

let desktop_pos_of_panner_pos (ctx : Ctx.t) ~screen pos =
  match vdesk_of ctx ~screen with
  | None -> pos
  | Some vdesk ->
      Geom.point (pos.Geom.px * vdesk.panner_scale) (pos.Geom.py * vdesk.panner_scale)

let pan_to_pointer (ctx : Ctx.t) ~screen ~panner_pos =
  let desktop_pos = desktop_pos_of_panner_pos ctx ~screen panner_pos in
  let sw, sh = Server.screen_size ctx.server ~screen in
  Vdesk.pan_to ctx ~screen
    (Geom.point (desktop_pos.px - (sw / 2)) (desktop_pos.py - (sh / 2)))

let panner_resized (ctx : Ctx.t) (client : Ctx.client) (w, h) =
  match vdesk_of ctx ~screen:client.screen with
  | Some vdesk when Xid.equal vdesk.panner_client client.cwin ->
      let scale = vdesk.panner_scale in
      let sw, sh = Server.screen_size ctx.server ~screen:client.screen in
      let dw = max sw (w * scale) and dh = max sh (h * scale) in
      let limited w = min w 32767 in
      Vdesk.resize_desktop ctx ~screen:client.screen (limited dw, limited dh)
  | Some _ | None -> ()
