(** The load governor: moves [Ctx.tier] from full to essential on queue
    pressure ({!Swm_xlib.Server.max_queue_ratio}) or watchdog stall
    deltas, and back to full after consecutive calm ticks.  Transitions
    are counted ([governor.transitions]), traced, and recorded (kind
    ["tier"]).  {!Wm} calls {!tick} every [Ctx.governor_interval]
    dispatched events; the same cadence drives
    {!Swm_xlib.Server.health_tick} (quarantine). *)

val restore_calm_ticks : int
(** Consecutive calm ticks before the full tier is restored. *)

val tick : Ctx.t -> unit
(** One governor tick: re-evaluate the tier (escalate immediately,
    restore after {!restore_calm_ticks} calm ticks), then run one
    {!Swm_xlib.Server.health_tick}. *)
