(* Layer probes for what no span separates.  They run from outside on a
   workload's live state once its measured phases are over.

   - Resource DB against OI: rebuild every managed client's decoration
     through [Wobj.create_toolkit], [Panel_spec.build] and
     [Wobj.realize]/[unrealize] over the WM's live [Config], with a lookup
     that counts and times each [Config.object_query]/[panel_definition]
     call.  The decoration build interleaves the two layers call by call,
     which is why no span can split them.
   - Panner: [Panner.refresh] and the [Server.request_count] delta of one
     call, set against the number of miniatures it rebuilt.
   - Governor: [Server.health_tick] + [Server.max_queue_ratio], the
     per-tick scan, at the workload's connection count. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Xrdb = Swm_xrdb.Xrdb
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Config = Swm_core.Config
module Panner = Swm_core.Panner
module Wobj = Swm_oi.Wobj
module Panel_spec = Swm_oi.Panel_spec

let now_ns = Acct.now_ns

type xrdb_oi = {
  entries : int;
  decorations : int;
  queries : int;
  query_ns : int;
  build_ns : int;  (** whole rebuilds, lookups included *)
}

(* The resource DB/OI probe rebuilds at least this many decorations, so
   the per-build figures average over enough work to be steady. *)
let min_builds = 200

(* Refreshes the panner probe runs, and governor scans whose median the
   governor probe takes. *)
let panner_refreshes = 20
let governor_ticks = 41

let xrdb_oi (w : Workloads.t) =
  let ctx = Wm.ctx w.wm in
  let cfg = ctx.Ctx.cfg in
  let server = w.server in
  let conn = Server.connect server ~name:"probe" in
  let parent =
    Server.create_window server conn ~parent:(Server.root server ~screen:0)
      ~geom:(Geom.rect 0 0 4000 4000) ~override_redirect:true ()
  in
  let queries = ref 0 and query_ns = ref 0 in
  let timed f =
    let t0 = now_ns () in
    let v = f () in
    query_ns := !query_ns + (now_ns () - t0);
    incr queries;
    v
  in
  let tk =
    Wobj.create_toolkit ~server ~conn ~screen:0 ~query:(fun ~names ~classes ->
        timed (fun () -> Config.object_query cfg ~screen:0 ~names ~classes))
  in
  let lookup name = timed (fun () -> Config.panel_definition cfg ~screen:0 name) in
  let clients =
    List.sort
      (fun (a : Ctx.client) b -> Xid.compare a.cwin b.cwin)
      (List.filter (fun (c : Ctx.client) -> c.screen = 0 && c.deco <> None)
         (Ctx.all_clients ctx))
  in
  let builds = ref 0 and build_ns = ref 0 in
  let rebuild (c : Ctx.client) =
    let t0 = now_ns () in
    (match
       timed (fun () ->
           Config.query_client cfg ~screen:0 (Ctx.client_scope c) "decoration")
     with
    | Some name when String.trim name <> "none" -> (
        match Panel_spec.build tk ~lookup ~kind:Wobj.Panel ~name:(String.trim name) with
        | Ok deco ->
            let cg = Server.geometry server c.cwin in
            (match Wobj.find_descendant deco ~name:"client" with
            | Some panel -> Wobj.set_external_size panel (Some (cg.w, cg.h))
            | None -> ());
            Wobj.realize deco ~parent_window:parent ~at:(Geom.point 0 0);
            (match Wobj.find_descendant deco ~name:"name" with
            | Some o -> Wobj.set_label o c.wm_name
            | None -> ());
            ignore (Wobj.attr_bool deco "resizeCorners" ~default:false);
            Wobj.unrealize deco
        | Error _ -> ())
    | Some _ | None -> ());
    build_ns := !build_ns + (now_ns () - t0);
    incr builds
  in
  if clients <> [] then
    while !builds < min_builds do
      List.iter rebuild clients
    done;
  Server.destroy_window server parent;
  Server.disconnect server conn;
  {
    entries = Xrdb.size (Config.db cfg);
    decorations = !builds;
    queries = !queries;
    query_ns = !query_ns;
    build_ns = !build_ns;
  }

type panner = { requests : int; miniatures : int }

let panner (w : Workloads.t) =
  let ctx = Wm.ctx w.wm in
  let r0 = Server.request_count w.server in
  for _ = 1 to panner_refreshes do
    Panner.refresh ctx ~screen:0
  done;
  {
    requests = Server.request_count w.server - r0;
    miniatures = Xid.Tbl.length ctx.Ctx.panner_minis;
  }

(* Median wall time of one governor scan, in ns. *)
let governor_tick (w : Workloads.t) =
  let times =
    List.init governor_ticks (fun _ ->
        let t0 = now_ns () in
        Server.health_tick w.server;
        ignore (Server.max_queue_ratio w.server);
        float_of_int (now_ns () - t0))
  in
  Acct.quantile_float times 0.5
