(* The benchmark's three workloads.

   Each workload builds a live server and WM from a seed, then yields
   actions (closed loop: the next action starts when the previous one's
   last [Wm.step] has returned) or rounds of inputs due on a fixed schedule
   (open loop).  The program only ever sees the generated inputs, through
   public functions of [Server], [Client_app], [Wire_conn], [Swmcmd] and
   [Wm].  Every such call runs inside one of the benchmark's own spans, and
   its minor allocation is read around it, so the traced run can split an
   action's cost across the program's layers. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event
module Region = Swm_xlib.Region
module Tracing = Swm_xlib.Tracing
module Wire = Swm_xlib.Wire
module Wire_conn = Swm_xlib.Wire_conn
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Wobj = Swm_oi.Wobj
module Client_app = Swm_clients.Client_app
module Workload = Swm_clients.Workload

(* -------- the benchmark's public calls -------- *)

(* One entry per public entry point the benchmark drives.  [call] wraps a
   call in a span of that name and adds the minor words it allocated. *)
type call = { c_name : string; mutable c_words : float }

let mk c_name = { c_name; c_words = 0.0 }
let launch_call = mk "client.launch"
let retire_call = mk "client.retire"
let inject_call = mk "client.inject"
let drain_call = mk "client.drain"
let step_call = mk "wm.step"
let swmcmd_call = mk "swmcmd.send"
let submit_call = mk "wire.submit"
let flush_call = mk "wire.flush_batch"

let calls =
  [ launch_call; retire_call; inject_call; drain_call; step_call; swmcmd_call;
    submit_call; flush_call ]

let reset_calls () = List.iter (fun c -> c.c_words <- 0.0) calls

let call server c f =
  let w0 = Gc.minor_words () in
  let v = Tracing.span (Server.tracer server) c.c_name f in
  c.c_words <- c.c_words +. (Gc.minor_words () -. w0);
  v

let step server wm = ignore (call server step_call (fun () -> Wm.step wm))

(* -------- workload shape -------- *)

type action = {
  label : string;  (** what the action does, for the seed tests *)
  run : unit -> unit;  (** its inputs and the [Wm.step] that completes it *)
  check : unit -> bool;  (** its effect, read back through public reads *)
}

type round = {
  r_label : string;
  r_inputs : int;  (** inputs in the round; each one is an action *)
  r_inject : unit -> unit;  (** inject them; the runner then steps the WM *)
}

type loop =
  | Closed of (unit -> action)  (** plans the next action *)
  | Open of {
      period_ns : int;
      next_round : unit -> round;
      settle : unit -> unit;  (** after a round's step: clients read their queues *)
    }

type t = {
  server : Server.t;
  wm : Wm.t;
  loop : loop;
  quiesce : unit -> unit;
      (** let every client read its queue and drain the WM *)
  final_check : unit -> int;  (** failed end-of-run checks *)
  wire_bytes : unit -> int;  (** bytes through the workload's wire clients *)
}

(* -------- shared helpers -------- *)

let quiet_resources =
  [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]

let desktop = (3456, 2700)

(* Launch specs: class, size and placement hints come from Workload's six
   stock classes; a serial makes every instance name unique, so instance-
   keyed resource lookups never repeat while class-keyed ones do. *)
type specs = {
  g_seed : int;
  g_area : int * int;
  mutable pool : Client_app.spec array;
  mutable next : int;
  mutable serial : int;
}

let specs ~seed ~area = { g_seed = seed; g_area = area; pool = [||]; next = 0; serial = 0 }

let next_spec g =
  if g.next >= Array.length g.pool then begin
    g.pool <-
      Array.of_list
        (Workload.specs
           {
             Workload.default_params with
             count = 256;
             area = g.g_area;
             seed = (g.g_seed * 7919) + g.serial;
           });
    g.next <- 0
  end;
  let s = g.pool.(g.next) in
  g.next <- g.next + 1;
  g.serial <- g.serial + 1;
  let instance = Printf.sprintf "%s_%d" s.Client_app.instance g.serial in
  { s with Client_app.instance; command = instance }

let launch server (spec : Client_app.spec) ~shaped =
  let app = Client_app.launch server spec in
  (if shaped then
     let g = spec.geom in
     Server.shape_set server (Client_app.conn app) (Client_app.window app)
       (Region.disc ~cx:(g.w / 2) ~cy:(g.h / 2) ~r:(min g.w g.h / 2)));
  app

let wm_state server win =
  match Server.get_property server win ~name:Prop.wm_state_name with
  | Some (Prop.Wm_state_value { state; _ }) -> Some state
  | Some _ | None -> None

let rec has_ancestor server win anc =
  let parent = Server.parent_of server win in
  (not (Xid.is_none parent)) && (Xid.equal parent anc || has_ancestor server parent anc)

(* Managed, reparented into a decoration frame, viewable, NormalState. *)
let managed_normal server wm win =
  match Wm.find_client wm win with
  | None -> false
  | Some c ->
      c.Ctx.deco <> None
      && (not (Xid.equal c.frame win))
      && has_ancestor server win c.frame
      && Server.is_viewable server win
      && wm_state server win = Some Prop.Normal

let drain_app server app = ignore (call server drain_call (fun () -> Client_app.process_events app))

(* -------- manage_churn --------

   Why: the paper's toolkit-overhead path (E1).  Each action manages a
   fresh client (resource lookups plus the OI decoration build) and
   retires the oldest resident, window and connection both, so the
   resident set and the connection count stay fixed.  Each client also
   owns an unmapped top-level window, like a toolkit's client leader; only
   closing the connection destroys it, so its absence after a retire shows
   that the connection was really closed.  OpenLook with the virtual
   desktop and root panels off: no panner, shallow queues.
   Loads: resource DB, OI/decoration, manage/unmanage dispatch, requests.
   Bypasses: panner, desktop, swmcmd, wire codec; the governor scans a
   constant 50 connections.  Class keys repeat across actions and
   instance keys never do, so a resource cache would show both its hits
   and its misses. *)

let churn_residents = 50

type resident = { app : Client_app.t; leader : Xid.t }

let manage_churn ~seed =
  let server = Server.create () in
  let wm = Wm.start ~resources:quiet_resources server in
  let rng = Random.State.make [| seed; 1 |] in
  let gen = specs ~seed ~area:(Server.screen_size server ~screen:0) in
  let next_launch () =
    let spec = next_spec gen in
    (spec, Random.State.float rng 1.0 < 0.1)
  in
  let launch_resident spec ~shaped =
    let app = launch server spec ~shaped in
    let leader =
      Server.create_window server (Client_app.conn app) ~parent:(Server.root server ~screen:0)
        ~geom:(Geom.rect 0 0 1 1) ()
    in
    { app; leader }
  in
  let live = Queue.create () in
  (* [closed] counts retired connections seen closed by an action's check. *)
  let opened = ref 0 and closed = ref 0 in
  for _ = 1 to churn_residents do
    let spec, shaped = next_launch () in
    Queue.push (launch_resident spec ~shaped) live;
    incr opened
  done;
  ignore (Wm.step wm);
  let next () =
    let spec, shaped = next_launch () in
    let victim = Queue.peek live in
    let fresh = ref None in
    {
      label =
        Printf.sprintf "manage %s%s, retire %s" spec.instance
          (if shaped then " shaped" else "")
          (Client_app.app_spec victim.app).instance;
      run =
        (fun () ->
          let r = call server launch_call (fun () -> launch_resident spec ~shaped) in
          incr opened;
          fresh := Some r.app;
          Queue.push r live;
          step server wm;
          call server retire_call (fun () ->
              Client_app.destroy victim.app;
              Server.disconnect server (Client_app.conn victim.app));
          ignore (Queue.pop live);
          step server wm);
      check =
        (fun () ->
          let gone = Client_app.window victim.app in
          let conn_closed = not (Server.window_exists server victim.leader) in
          if conn_closed then incr closed;
          conn_closed
          && Wm.find_client wm gone = None
          && (not (Server.window_exists server gone))
          &&
          match !fresh with
          | Some app -> managed_normal server wm (Client_app.window app)
          | None -> false);
    }
  in
  {
    server;
    wm;
    loop = Closed next;
    quiesce = (fun () -> while Wm.step wm > 0 do () done);
    (* Every connection the workload opened, except the residents', was
       seen closed, and the residents' are still open: a churn that leaks
       connections grows the governor's scan. *)
    final_check =
      (fun () ->
        if
          !opened - !closed = churn_residents
          && Queue.length live = churn_residents
          && Queue.fold (fun ok r -> ok && Server.window_exists server r.leader) true live
        then 0
        else 1);
    wire_bytes = (fun () -> 0);
  }

(* -------- interactive --------

   Why: direct manipulation is what users feel.  One user clicks titles
   (Btn2 -> f.raise through the name button's bindings), drags them (Btn1
   -> f.move, ten motion steps) and sends f.panTo / f.iconify /
   f.deiconify with swmcmd.  Full OpenLook template: 3456x2700 desktop,
   panner and root panel, 60 clients.  Each action is a short round trip
   through dispatch -> object lookup -> bindings -> f.* -> Vdesk/Panner;
   queues stay about one deep and a click reads the resource DB once.
   Loads: dispatch, bindings, functions, the panner refresh every raise
   and pan runs.  Bypasses: decoration builds, the wire codec. *)

let interactive_clients = 60

let interactive ~seed =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let ctx = Wm.ctx wm in
  let rng = Random.State.make [| seed; 2 |] in
  let apps =
    Array.of_list
      (Workload.launch server
         { Workload.default_params with count = interactive_clients; area = desktop; seed })
  in
  ignore (Wm.step wm);
  let user = Server.connect server ~name:"user" in
  let sw, sh = Server.screen_size server ~screen:0 in
  let dw, dh = desktop in
  let panner =
    match (Ctx.screen ctx 0).vdesk with
    | Some v when not (Xid.is_none v.panner_client) -> (
        match Wm.find_client wm v.panner_client with
        | Some c -> Some (Server.root_geometry server c.frame)
        | None -> None)
    | Some _ | None -> None
  in
  let client_of app = Wm.find_client wm (Client_app.window app) in
  let title (c : Ctx.client) =
    match c.deco with
    | Some deco -> (
        match Wobj.find_descendant deco ~name:"name" with
        | Some o when Wobj.is_realized o -> Some (Wobj.window o)
        | Some _ | None -> None)
    | None -> None
  in
  (* A point on the glass where the title button is the topmost window. *)
  let visible_point win =
    let g = Server.root_geometry server win in
    List.find_map
      (fun (x, y) ->
        let p = Geom.point x y in
        if x >= 0 && y >= 0 && x < sw && y < sh
           && Xid.equal (Server.window_at server ~screen:0 p) win
        then Some p
        else None)
      [ (g.x + (g.w / 2), g.y + (g.h / 2)); (g.x + (g.w / 4), g.y + (g.h / 2));
        (g.x + (3 * g.w / 4), g.y + (g.h / 2)); (g.x + 2, g.y + 2);
        (g.x + g.w - 3, g.y + g.h - 3) ]
  in
  let visible_titles () =
    Array.fold_right
      (fun app acc ->
        match client_of app with
        | Some c when c.state = Prop.Normal -> (
            match title c with
            | Some t -> (
                match visible_point t with Some p -> (app, c, p) :: acc | None -> acc)
            | None -> acc)
        | Some _ | None -> acc)
      apps []
  in
  let in_state state =
    List.filter
      (fun app ->
        match client_of app with Some c -> c.state = state | None -> false)
      (Array.to_list apps)
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let inject f = call server inject_call f in
  let name app = (Client_app.app_spec app).instance in
  let click (app, (c : Ctx.client), p) =
    {
      label = Printf.sprintf "click %s" (name app);
      run =
        (fun () ->
          inject (fun () -> Server.warp_pointer server ~screen:0 p);
          step server wm;
          inject (fun () -> Server.press_button server 2);
          step server wm;
          inject (fun () -> Server.release_button server 2);
          step server wm);
      check =
        (fun () ->
          let ok =
            match List.rev (Server.children_of server (Server.parent_of server c.frame)) with
            | top :: _ -> Xid.equal top c.frame
            | [] -> false
          in
          drain_app server app;
          ok);
    }
  in
  let rec release_point tries =
    let q = Geom.point (8 + Random.State.int rng (sw - 16)) (8 + Random.State.int rng (sh - 16)) in
    match panner with
    | Some r when Geom.contains r q && tries > 0 -> release_point (tries - 1)
    | Some _ | None -> q
  in
  let drag (app, (c : Ctx.client), p) =
    let q = release_point 20 in
    let origin = ref (Geom.point 0 0) in
    {
      label = Printf.sprintf "drag %s to %d,%d" (name app) q.px q.py;
      run =
        (fun () ->
          let g = Server.root_geometry server c.frame in
          origin := Geom.point g.x g.y;
          inject (fun () -> Server.warp_pointer server ~screen:0 p);
          step server wm;
          inject (fun () -> Server.press_button server 1);
          step server wm;
          for i = 1 to 10 do
            inject (fun () ->
                Server.warp_pointer server ~screen:0
                  (Geom.point
                     (p.px + ((q.px - p.px) * i / 10))
                     (p.py + ((q.py - p.py) * i / 10))));
            step server wm
          done;
          inject (fun () -> Server.release_button server 1);
          step server wm);
      check =
        (fun () ->
          let g = Server.root_geometry server c.frame in
          let ok =
            g.x = !origin.px + q.px - p.px && g.y = !origin.py + q.py - p.py
          in
          drain_app server app;
          ok);
    }
  in
  let pan () =
    let x = Random.State.int rng (dw - sw + 600) - 300 in
    let y = Random.State.int rng (dh - sh + 600) - 300 in
    let ex = max 0 (min x (dw - sw)) and ey = max 0 (min y (dh - sh)) in
    {
      label = Printf.sprintf "pan %d,%d" x y;
      run =
        (fun () ->
          call server swmcmd_call (fun () ->
              Swmcmd.send server user ~screen:0 (Printf.sprintf "f.panTo(%d,%d)" x y));
          step server wm);
      check =
        (fun () ->
          let vp = Vdesk.viewport ctx ~screen:0 in
          vp.x = ex && vp.y = ey);
    }
  in
  let set_state verb state app =
    let win = Client_app.window app in
    {
      label = Printf.sprintf "%s %s" verb (name app);
      run =
        (fun () ->
          call server swmcmd_call (fun () ->
              Swmcmd.send server user ~screen:0
                (Printf.sprintf "f.%s(#%d)" verb (Xid.to_int win)));
          step server wm);
      check =
        (fun () ->
          let ok = wm_state server win = Some state in
          drain_app server app;
          ok);
    }
  in
  let iconify () = set_state "iconify" Prop.Iconic (pick (in_state Prop.Normal)) in
  let deiconify () = set_state "deiconify" Prop.Normal (pick (in_state Prop.Iconic)) in
  let next () =
    let roll = Random.State.int rng 100 in
    let iconic = List.length (in_state Prop.Iconic) in
    if roll < 65 then
      match visible_titles () with
      | [] -> pan ()
      | titles -> if roll < 40 then click (pick titles) else drag (pick titles)
    else if roll < 80 then pan ()
    else if roll < 90 then if iconic < 15 then iconify () else deiconify ()
    else if iconic > 0 then deiconify ()
    else iconify ()
  in
  {
    server;
    wm;
    loop = Closed next;
    quiesce =
      (fun () ->
        Array.iter (fun app -> ignore (Client_app.process_events app)) apps;
        while Wm.step wm > 0 do () done);
    final_check = (fun () -> 0);
    wire_bytes = (fun () -> 0);
  }

(* -------- storm --------

   Why: overload is where the pipeline earns its keep.  100 active clients
   plus 2,000 idle connections (connected, no windows: legal X) under a
   seeded open-loop schedule of ConfigureRequests (moves and resizes),
   WM_NAME retitles, Expose damage on client windows and frames, and
   pointer sweeps.  A quarter of the active clients speak only the wire
   protocol: they submit encoded frames and drain batched event bytes.
   The rate keeps the WM busy about a quarter of the wall time on a quiet
   host, and under half while other tenants slow it down: past that, open-
   loop queueing turns the host's slow spells into a backlog.
   Loads: enqueue/coalesce/ledger, the governor's per-tick scan of every
   connection, the panner refresh every ConfigureRequest runs, the wire
   codec.  Bypasses: decoration builds and most resource lookups, so a
   resource-DB change should not move it. *)

let storm_active = 100
let storm_wire = 25
let storm_idle = 2000

(* One round of 1-7 inputs (4 on average) every [storm_period_ns]: 500
   inputs a second. *)
let storm_period_ns = 8_000_000

type speaker =
  | App of Client_app.t
  | Wired of { wc : Wire_conn.t; wid : Xid.t }

type active = {
  speaker : speaker;
  win : Xid.t;  (** server id of the client window *)
  mutable want_pos : Geom.point;  (** last requested frame position *)
  mutable want_size : int * int;  (** last requested client size *)
  mutable titles : int;
}

let storm_title i n = Printf.sprintf "client %03d title %06d" i n

let wire_launch server (spec : Client_app.spec) ~title =
  let wc = Wire_conn.create server ~name:spec.instance in
  let wid = Wire_conn.fresh_id wc in
  let root = Wire_conn.root_id wc ~screen:0 in
  let frames =
    String.concat ""
      (List.map Wire.encode_request
         [
           Wire.Create_window
             { wid; parent = root; geom = spec.geom; border = 0; override_redirect = false };
           Wire.Change_property { window = wid; name = Prop.wm_name; value = title };
           Wire.Select_input
             { window = wid; masks = [ Event.Structure_notify; Event.Exposure_mask ] };
           Wire.Map_window wid;
         ])
  in
  (match Wire_conn.submit_bytes wc frames with
  | Ok _ -> ()
  | Error e -> failwith ("wire client launch: " ^ e.Wire_conn.error));
  match Wire_conn.resolve wc wid with
  | Some win -> (Wired { wc; wid }, win)
  | None -> failwith "wire client launch: window not created"

let storm ~seed =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let rng = Random.State.make [| seed; 3 |] in
  for i = 1 to storm_idle do
    ignore (Server.connect server ~name:(Printf.sprintf "idle%d" i))
  done;
  let sw, sh = Server.screen_size server ~screen:0 in
  let dw, dh = desktop in
  let actives =
    Array.of_list
      (List.mapi
         (fun i (spec : Client_app.spec) ->
           let speaker, win =
             if i < storm_wire then wire_launch server spec ~title:(storm_title i 0)
             else begin
               let app = Client_app.launch server spec in
               Client_app.set_name app (storm_title i 0);
               Server.select_input server (Client_app.conn app) (Client_app.window app)
                 [ Event.Structure_notify; Event.Exposure_mask ];
               (App app, Client_app.window app)
             end
           in
           { speaker; win; want_pos = Geom.point 0 0; want_size = (0, 0); titles = 0 })
         (Workload.specs
            { Workload.default_params with count = storm_active; area = desktop; seed }))
  in
  ignore (Wm.step wm);
  Array.iter
    (fun a ->
      match Wm.find_client wm a.win with
      | Some c ->
          let fg = Server.geometry server c.frame and cg = Server.geometry server a.win in
          a.want_pos <- Geom.point fg.x fg.y;
          a.want_size <- (cg.w, cg.h)
      | None -> failwith "storm: client not managed at setup")
    actives;
  (* Clients read what is queued for them after every round. *)
  let drain a =
    match a.speaker with
    | App app -> drain_app server app
    | Wired { wc; _ } ->
        ignore (call server flush_call (fun () -> Wire_conn.flush_batch_bytes wc))
  in
  let submit wc req =
    call server submit_call (fun () ->
        match Wire_conn.submit_bytes wc (Wire.encode_request req) with
        | Ok _ -> ()
        | Error e -> failwith ("wire submit: " ^ e.Wire_conn.error))
  in
  (* Every request carries the client's whole geometry, and titles keep
     their length: a decoration whose size changes is relaid out at the
     position it was realized at ([Wobj.relayout]), which undoes earlier
     moves unless the same request moves the frame again. *)
  let configure a =
    let w, h = a.want_size in
    let changes =
      { Event.no_changes with
        cx = Some a.want_pos.px; cy = Some a.want_pos.py; cw = Some w; ch = Some h }
    in
    match a.speaker with
    | App app ->
        call server inject_call (fun () ->
            Server.configure_window server (Client_app.conn app) a.win changes)
    | Wired { wc; wid } -> submit wc (Wire.Configure_window (wid, changes))
  in
  let retitle a text =
    match a.speaker with
    | App app -> call server inject_call (fun () -> Client_app.set_name app text)
    | Wired { wc; wid } ->
        submit wc (Wire.Change_property { window = wid; name = Prop.wm_name; value = text })
  in
  let damage win =
    call server inject_call (fun () ->
        let g = Server.geometry server win in
        let w = 1 + Random.State.int rng (max 1 (g.w / 2))
        and h = 1 + Random.State.int rng (max 1 (g.h / 2)) in
        Server.damage_window server win
          (Geom.rect (Random.State.int rng (max 1 (g.w - w))) (Random.State.int rng (max 1 (g.h - h))) w h))
  in
  let plan_input () =
    let roll = Random.State.int rng 100 in
    let i = Random.State.int rng storm_active in
    let a = actives.(i) in
    if roll < 35 then begin
      let x = Random.State.int rng (dw - 700) and y = Random.State.int rng (dh - 700) in
      ( Printf.sprintf "move %d to %d,%d" i x y,
        fun () ->
          a.want_pos <- Geom.point x y;
          configure a )
    end
    else if roll < 50 then begin
      let w = 50 + Random.State.int rng 550 and h = 50 + Random.State.int rng 550 in
      ( Printf.sprintf "resize %d to %dx%d" i w h,
        fun () ->
          a.want_size <- (w, h);
          configure a )
    end
    else if roll < 65 then
      ( Printf.sprintf "retitle %d" i,
        fun () ->
          a.titles <- a.titles + 1;
          retitle a (storm_title i a.titles) )
    else if roll < 80 then (Printf.sprintf "expose client %d" i, fun () -> damage a.win)
    else if roll < 90 then
      ( Printf.sprintf "expose frame %d" i,
        fun () ->
          match Wm.find_client wm a.win with
          | Some c -> damage c.frame
          | None -> failwith "storm: client lost its frame" )
    else begin
      let points =
        List.init 4 (fun _ ->
            Geom.point (Random.State.int rng sw) (Random.State.int rng sh))
      in
      ( "sweep",
        fun () ->
          call server inject_call (fun () ->
              List.iter (fun p -> Server.warp_pointer server ~screen:0 p) points) )
    end
  in
  let next_round () =
    let inputs = List.init (1 + Random.State.int rng 7) (fun _ -> plan_input ()) in
    {
      r_label = String.concat "; " (List.map fst inputs);
      r_inputs = List.length inputs;
      r_inject = (fun () -> List.iter (fun (_, inject) -> inject ()) inputs);
    }
  in
  let settle () = Array.iter drain actives in
  let quiesce () =
    settle ();
    while Wm.step wm > 0 do () done;
    settle ()
  in
  (* After the last drain every frame sits where its client last asked. *)
  let final_check () =
    Array.fold_left
      (fun bad a ->
        match Wm.find_client wm a.win with
        | None -> bad + 1
        | Some c ->
            let fg = Server.geometry server c.frame and cg = Server.geometry server a.win in
            if fg.x = a.want_pos.px && fg.y = a.want_pos.py && (cg.w, cg.h) = a.want_size
            then bad
            else bad + 1)
      0 actives
  in
  let wire_bytes () =
    Array.fold_left
      (fun acc a ->
        match a.speaker with
        | Wired { wc; _ } -> acc + Wire_conn.bytes_sent wc + Wire_conn.bytes_received wc
        | App _ -> acc)
      0 actives
  in
  {
    server;
    wm;
    loop = Open { period_ns = storm_period_ns; next_round; settle };
    quiesce;
    final_check;
    wire_bytes;
  }

let names = [ "manage_churn"; "interactive"; "storm" ]

let make name ~seed =
  match name with
  | "manage_churn" -> manage_churn ~seed
  | "interactive" -> interactive ~seed
  | "storm" -> storm ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
