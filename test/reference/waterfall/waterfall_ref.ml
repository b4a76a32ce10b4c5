(* The recent-dispatch waterfall as the WM recorded it before the ledger's
   fate slots carried it: the drain dispatched each event it read between
   two clock reads of its own, and pushed one record per dispatch into a
   64-slot ring.  [step] is [Wm.step] with that recording, for a WM whose
   flight recorder is off (it takes no state snapshot). *)

module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Event = Swm_xlib.Event
module Ring = Swm_xlib.Ring
module Recorder = Swm_xlib.Recorder
module Ctx = Swm_core.Ctx
module Wm = Swm_core.Wm
module Panner = Swm_core.Panner

type waterfall_rec = {
  wf_seq : int; (* the triggering event's ingress seq *)
  wf_code : int;
  wf_ingress_ns : int; (* 0 when the ledger was disarmed at enqueue *)
  wf_t0 : int; (* dispatch start, monotonic *)
  wf_t1 : int; (* dispatch complete *)
  wf_requests : int; (* output requests issued during this dispatch *)
  wf_fns : string list; (* f.* verbs the dispatch executed, in order *)
}

let waterfall_capacity = 64

type t = waterfall_rec Ring.t

let create () : t = Ring.bounded waterfall_capacity
let records (t : t) = Ring.to_list t

(* The essential tier skips a droppable event without dispatching it, and
   a skipped event left no record. *)
let dispatch (t : t) (ctx : Ctx.t) event (stamp : Server.stamp) =
  let code = Event.code event in
  if ctx.tier = Ctx.Tier_essential && Event.droppable_code code then
    ignore (Wm.dispatch_read ctx event stamp ~t0:0)
  else begin
    let t0 = Metrics.now_mono_ns () in
    let req0 = Server.request_count ctx.server in
    ignore (Wm.dispatch_read ctx event stamp ~t0);
    let t1 = Metrics.now_mono_ns () in
    if Server.ledger_enabled ctx.server then
      Ring.push t
        {
          wf_seq = stamp.seq;
          wf_code = code;
          wf_ingress_ns = stamp.ingress_ns;
          wf_t0 = t0;
          wf_t1 = t1;
          wf_requests = Server.request_count ctx.server - req0;
          wf_fns = List.rev ctx.fn_trail;
        }
  end

let rec drain t (ctx : Ctx.t) count =
  if ctx.running || Server.pending ctx.conn > 0 then begin
    let n = Server.read_batch ctx.conn ctx.batch_events ctx.batch_stamps in
    for i = 0 to n - 1 do
      dispatch t ctx ctx.batch_events.(i) ctx.batch_stamps.(i)
    done;
    if n = 0 then count else drain t ctx (count + n)
  end
  else count

let step t (ctx : Ctx.t) =
  Recorder.record_op (Server.recorder ctx.server) "step";
  let count = Server.with_journal_suspended ctx.server (fun () -> drain t ctx 0) in
  Panner.apply_damage ctx;
  count
