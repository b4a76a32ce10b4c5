(* The load governor: degradation tiers driven by queue pressure and
   watchdog wall latency.

   Every [governor_interval] dispatched events {!Wm} calls {!tick}, which
   reads the two overload signals — the worst queue-depth-to-cap ratio
   across connections ({!Server.max_queue_ratio}) and the watchdog stall
   delta since the last tick — and steps [ctx.tier]:

       full ----pressure---> essential
       full <---calm ticks-- essential

   Escalation is immediate (overload will not wait); restoration needs
   [restore_calm_ticks] consecutive calm ticks, so a load oscillation
   cannot flap the WM between tiers.  Each transition is counted
   ([governor.transitions]), traced, and recorded (kind ["tier"]).
   Restoring to full triggers the panner refreshes that the essential
   tier skipped.

   The same cadence drives {!Server.health_tick}, so quarantine decisions
   ride the governor clock instead of needing their own. *)

module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Tracing = Swm_xlib.Tracing
module Recorder = Swm_xlib.Recorder

(* The queue ratio at which the governor escalates. *)
let essential_ratio = 0.9

(* The watchdog stall delta (per governor interval) at which it escalates. *)
let essential_stalls = 2

(* Consecutive calm ticks before restoring the full tier. *)
let restore_calm_ticks = 3

let desired (ctx : Ctx.t) =
  let ratio = Server.max_queue_ratio ctx.server in
  let stalls = Metrics.value ctx.c_watchdog_stalls in
  let d_stalls = stalls - ctx.gov_last_stalls in
  ctx.gov_last_stalls <- stalls;
  if ratio >= essential_ratio || d_stalls >= essential_stalls then
    Ctx.Tier_essential
  else Ctx.Tier_full

let transition (ctx : Ctx.t) ~from tier =
  ctx.tier <- tier;
  Metrics.incr ctx.c_tier_transitions;
  let attrs = [ ("from", Ctx.tier_name from); ("to", Ctx.tier_name tier) ] in
  let tracer = Server.tracer ctx.server in
  if Tracing.enabled tracer then Tracing.instant tracer "governor.tier" ~attrs;
  let recorder = Server.recorder ctx.server in
  if Recorder.enabled recorder then
    Recorder.record recorder ~kind:"tier" ~attrs
      (Ctx.tier_name from ^ " -> " ^ Ctx.tier_name tier);
  Ctx.Log.debug (fun m ->
      m "governor: tier %s -> %s" (Ctx.tier_name from) (Ctx.tier_name tier));
  (* Back at full service: repaint what the essential tier skipped. *)
  if tier = Ctx.Tier_full then
    Array.iter
      (fun (scr : Ctx.screen_state) ->
        Xguard.run ctx ~where:"governor.restore" (fun () ->
            Panner.refresh ctx ~screen:scr.index))
      ctx.screens

let tick (ctx : Ctx.t) =
  let current = ctx.tier in
  (match (current, desired ctx) with
  | Ctx.Tier_full, Ctx.Tier_essential ->
      ctx.gov_calm <- 0;
      transition ctx ~from:current Ctx.Tier_essential
  | Ctx.Tier_essential, Ctx.Tier_full ->
      ctx.gov_calm <- ctx.gov_calm + 1;
      if ctx.gov_calm >= restore_calm_ticks then begin
        ctx.gov_calm <- 0;
        transition ctx ~from:current Ctx.Tier_full
      end
  | Ctx.Tier_full, Ctx.Tier_full | Ctx.Tier_essential, Ctx.Tier_essential ->
      ctx.gov_calm <- 0);
  Server.health_tick ctx.server
