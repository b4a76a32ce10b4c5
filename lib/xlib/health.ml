(* Per-connection health scoring for slow-client quarantine.

   Each connection carries a [t].  On every server health tick the caller
   feeds [observe] the connection's pressure signals: its queue depth ratio
   and four running totals (events shed from its queue, rejected wire
   frames, absorbed X errors, stall contributions).  [observe] turns the
   totals into deltas, folds them into a decayed score and steps a
   three-state machine with hysteresis:

       Healthy --score >= quarantine--> Throttled
       Throttled --score >= evict--> Evicted        (terminal)
       Throttled --calm_ticks quiet ticks--> Healthy

   The score decays multiplicatively each tick, so a burst of misbehaviour
   must be sustained to reach eviction, and a throttled client that goes
   quiet earns its way back instead of flapping on a single calm sample.
   Only quiet ticks spent throttled count: entering Throttled resets the
   count, so quiet ticks before the quarantine cannot shorten it. *)

type state = Healthy | Throttled | Evicted

let state_name = function
  | Healthy -> "healthy"
  | Throttled -> "throttled"
  | Evicted -> "evicted"

type thresholds = {
  quarantine_score : float;  (* enter Throttled at or above *)
  evict_score : float;       (* enter Evicted at or above *)
  calm_ticks : int;          (* consecutive quiet ticks to leave Throttled *)
  decay : float;             (* multiplicative score decay per tick *)
}

let default_thresholds =
  { quarantine_score = 8.0; evict_score = 24.0; calm_ticks = 3; decay = 0.5 }

type t = {
  mutable state : state;
  mutable score : float;
  mutable calm : int; (* consecutive quiet ticks; read only while Throttled *)
  (* Last observed cumulative signals, so a sample of running totals can be
     turned into per-tick deltas without the caller tracking them. *)
  mutable last_shed : int;
  mutable last_rejected : int;
  mutable last_xerrors : int;
  mutable last_stalls : int;
}

let create () =
  {
    state = Healthy;
    score = 0.0;
    calm = 0;
    last_shed = 0;
    last_rejected = 0;
    last_xerrors = 0;
    last_stalls = 0;
  }

(* Signal weights: queue pressure and shed events dominate (they are the
   direct overload signals); protocol errors and stalls count but a lone
   BadWindow race must not quarantine an otherwise healthy client. *)
let w_depth = 4.0
let w_shed = 1.0
let w_rejected = 2.0
let w_xerrors = 0.5
let w_stalls = 3.0

type transition = No_change | Became of state

(* Far below anything that could quarantine: a score under it is noise. *)
let rest_floor th = th.quarantine_score /. 1024.

(* [depth_ratio] is pending / cap; the four counts are running totals for
   the connection, passed as arguments so a tick allocates no sample. *)
let observe th t ~depth_ratio ~shed ~rejected ~xerrors ~stalls =
  let d_shed = max 0 (shed - t.last_shed) in
  let d_rejected = max 0 (rejected - t.last_rejected) in
  let d_xerrors = max 0 (xerrors - t.last_xerrors) in
  let d_stalls = max 0 (stalls - t.last_stalls) in
  t.last_shed <- shed;
  t.last_rejected <- rejected;
  t.last_xerrors <- xerrors;
  t.last_stalls <- stalls;
  let pressure =
    (w_depth *. max 0.0 depth_ratio)
    +. (w_shed *. float_of_int d_shed)
    +. (w_rejected *. float_of_int d_rejected)
    +. (w_xerrors *. float_of_int d_xerrors)
    +. (w_stalls *. float_of_int d_stalls)
  in
  t.score <- (t.score *. th.decay) +. pressure;
  if pressure < 0.5 then t.calm <- t.calm + 1 else t.calm <- 0;
  let prev = t.state in
  (match t.state with
  | Healthy ->
      if t.score >= th.quarantine_score then begin
        t.state <- Throttled;
        t.calm <- 0
      end
  | Throttled ->
      if t.score >= th.evict_score then t.state <- Evicted
      else if t.calm >= th.calm_ticks && t.score < th.quarantine_score then begin
        t.state <- Healthy;
        t.score <- 0.0
      end
  | Evicted -> ());
  (* Decay alone reaches 0 only when the float underflows, about a
     thousand ticks after the last pressure; on a tick with no pressure,
     snap a Healthy score below the floor so an idle connection comes to
     rest (see [Server.health_tick]) within a few ticks.  A score still
     building up under pressure, however slight, is kept. *)
  if t.state = Healthy && pressure = 0.0 && t.score < rest_floor th then
    t.score <- 0.0;
  if t.state == prev then No_change else Became t.state
