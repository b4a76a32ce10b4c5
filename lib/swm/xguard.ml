module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Tracing = Swm_xlib.Tracing
module Recorder = Swm_xlib.Recorder
module Xid = Swm_xlib.Xid

let absorbed (ctx : Ctx.t) ~where msg =
  let metrics = Server.metrics ctx.server in
  Metrics.incr (Metrics.counter metrics "wm.xerrors");
  (* Absorption-site attribution: "which boundary keeps eating errors" is
     the question fault storms raise, and the totals above cannot answer
     it.  Cold path, so the family lookup per absorption is fine. *)
  Metrics.incr
    (Metrics.labeled_counter
       (Metrics.counter_family metrics ~key:"where" "wm.xerrors.by_where")
       where);
  Ctx.Log.debug (fun m -> m "absorbed X error in %s: %s" where msg);
  Tracing.note (Server.tracer ctx.server) "wm.xerror"
    ~attrs:[ ("where", where); ("error", msg) ];
  (* An absorbed error is exactly the moment the flight recorder exists
     for: log it in the ring, then dump a crash report if one is armed
     ([crash] is a no-op otherwise). *)
  let recorder = Server.recorder ctx.server in
  Recorder.record recorder ~kind:"xerror" ~attrs:[ ("where", where) ] msg;
  Recorder.crash recorder
    ~reason:(Printf.sprintf "absorbed X error in %s: %s" where msg)
    ~metrics:(Server.metrics ctx.server)
    ~tracer:(Server.tracer ctx.server)

let absorb (ctx : Ctx.t) ~where = function
  | Server.Bad_window id -> absorbed ctx ~where (Format.asprintf "BadWindow %a" Xid.pp id)
  | Server.Bad_access msg -> absorbed ctx ~where ("BadAccess: " ^ msg)
  | e -> raise e

let protect (ctx : Ctx.t) ~where f =
  match f () with
  | v -> Some v
  | exception ((Server.Bad_window _ | Server.Bad_access _) as e) ->
      absorb ctx ~where e;
      None

let run (ctx : Ctx.t) ~where f =
  match protect ctx ~where f with Some () | None -> ()
