module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Recorder = Swm_xlib.Recorder
module Tracing = Swm_xlib.Tracing
module Prop = Swm_xlib.Prop

type outcome =
  | Stepped of int
  | Recovered of { reason : string; attempts : int }
  | Gave_up of { reason : string }

type t = {
  server : Server.t;
  resources : string list;
  host : string;
  display : string;
  mutable wm : Ctx.t;
  mutable restarts : int;
  mutable max_restarts : int;
  mutable backoff_base_ms : int;
  mutable backoff_max_ms : int;
  mutable last_stalls : int;
  mutable dead : bool;
  mutable sleep_ms : int -> unit;
  c_recoveries : Metrics.counter;
  c_restarts : Metrics.counter;
  c_giveups : Metrics.counter;
  h_backoff : Metrics.histogram;
}

(* New watchdog stalls in one supervised step that trigger a recovery. *)
let stall_limit = 3

let create ?(resources = []) ?(host = "localhost") ?(display = ":0") server =
  let wm = Wm.start ~resources ~host ~display server in
  let metrics = Server.metrics server in
  let t =
    {
      server;
      resources;
      host;
      display;
      wm;
      restarts = 0;
      max_restarts = 3;
      backoff_base_ms = 50;
      backoff_max_ms = 2000;
      last_stalls = Metrics.value wm.Ctx.c_watchdog_stalls;
      dead = false;
      sleep_ms = ignore;
      c_recoveries = Metrics.counter metrics "supervisor.recoveries";
      c_restarts = Metrics.counter metrics "supervisor.restarts";
      c_giveups = Metrics.counter metrics "supervisor.giveups";
      h_backoff = Metrics.histogram metrics "supervisor.backoff_ms";
    }
  in
  t

let wm t = t.wm
let restarts t = t.restarts
let gave_up t = t.dead
let set_sleep t f = t.sleep_ms <- f
let set_max_restarts t n = t.max_restarts <- max 0 n

let set_backoff t ~base_ms ~max_ms =
  t.backoff_base_ms <- max 0 base_ms;
  t.backoff_max_ms <- max 1 max_ms

(* Re-seed SWM_PLACES on the root with the live placement of every managed
   client, so the restarted WM's session read re-adopts them where they
   stand.  The dying WM may be arbitrarily broken: everything here is
   best-effort and must not stop the recovery itself. *)
let save_session t =
  let ctx = t.wm in
  (match Functions.places_hints ctx with
  | [] -> ()
  | hints ->
      let text = String.concat "\n" (List.map Session.hint_to_args hints) in
      let root = Server.root t.server ~screen:0 in
      Server.change_property t.server ctx.Ctx.conn root ~name:Prop.swm_places
        (Prop.String text));
  Functions.autosave ctx ~file_arg:None

let sup_record t ~attrs msg =
  let recorder = Server.recorder t.server in
  if Recorder.enabled recorder then
    Recorder.record recorder ~kind:"supervisor" ~attrs msg;
  let tracer = Server.tracer t.server in
  if Tracing.enabled tracer then Tracing.instant tracer ("supervisor." ^ msg)

let recover t ~reason =
  let metrics = Server.metrics t.server in
  Metrics.incr t.c_recoveries;
  sup_record t ~attrs:[ ("reason", reason) ] "recovering";
  (* The journal must not replay supervisor plumbing: a replay re-derives
     the recovery from the same stalls/exceptions. *)
  Server.with_journal_suspended t.server @@ fun () ->
  (try save_session t with _ -> ());
  Recorder.crash (Server.recorder t.server) ~reason ~metrics
    ~tracer:(Server.tracer t.server);
  (try Wm.shutdown t.wm with _ -> ());
  let rec attempt n =
    if n > t.max_restarts then begin
      t.dead <- true;
      Metrics.incr t.c_giveups;
      sup_record t ~attrs:[ ("reason", reason) ] "gave_up";
      Gave_up { reason }
    end
    else begin
      let backoff =
        min t.backoff_max_ms (t.backoff_base_ms * (1 lsl min 20 (n - 1)))
      in
      Metrics.observe t.h_backoff backoff;
      t.sleep_ms backoff;
      match Wm.start ~resources:t.resources ~host:t.host ~display:t.display
              t.server
      with
      | wm ->
          t.wm <- wm;
          t.restarts <- t.restarts + 1;
          t.last_stalls <- Metrics.value wm.Ctx.c_watchdog_stalls;
          Metrics.incr t.c_restarts;
          sup_record t ~attrs:[ ("attempt", string_of_int n) ] "restarted";
          Recovered { reason; attempts = n }
      | exception e ->
          sup_record t
            ~attrs:[ ("attempt", string_of_int n);
                     ("error", Printexc.to_string e) ]
            "restart_failed";
          attempt (n + 1)
    end
  in
  attempt 1

let step ?drive t =
  if t.dead then Gave_up { reason = "supervisor exhausted its restart budget" }
  else begin
    let drive = match drive with Some d -> d | None -> fun wm -> Wm.step wm in
    match drive t.wm with
    | n ->
        let stalls = Metrics.value t.wm.Ctx.c_watchdog_stalls in
        let delta = stalls - t.last_stalls in
        t.last_stalls <- stalls;
        if delta >= stall_limit then
          recover t
            ~reason:
              (Printf.sprintf "watchdog: %d stalls in one supervised step"
                 delta)
        else Stepped n
    | exception e ->
        recover t ~reason:("escaped dispatch: " ^ Printexc.to_string e)
  end
