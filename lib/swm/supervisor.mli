(** The supervised restart loop (tentpole (d)): wraps a running {!Wm} and
    turns repeated watchdog stalls or an escaped dispatch exception into a
    recovery — autosave + crash report + teardown + restart with
    exponential backoff — instead of a dead window manager.  Clients stay
    parented via the save-set across the restart and are re-adopted through
    the SWM_PLACES session property the supervisor re-seeds before tearing
    the old instance down.

    It recovers on 3 new watchdog stalls in one supervised step, and
    gives up after 3 failed restarts; the backoff starts at 50ms and
    doubles up to 2000ms ({!set_max_restarts} and {!set_backoff} change
    the last two).

    Metrics: [supervisor.recoveries], [supervisor.restarts],
    [supervisor.giveups] (counters) and [supervisor.backoff_ms]
    (histogram).  Recorder entries use kind ["supervisor"].  All recovery
    plumbing runs under {!Swm_xlib.Server.with_journal_suspended} so a
    deterministic replay re-derives the recovery rather than replaying
    it. *)

type outcome =
  | Stepped of int  (** Normal step: the WM handled [n] events. *)
  | Recovered of { reason : string; attempts : int }
      (** The WM was torn down and restarted on attempt [attempts]. *)
  | Gave_up of { reason : string }
      (** The restart budget is exhausted; the supervisor is inert. *)

type t

val create :
  ?resources:string list -> ?host:string -> ?display:string ->
  Swm_xlib.Server.t -> t
(** Start the first WM instance (via {!Wm.start}) under supervision. *)

val wm : t -> Ctx.t
(** The currently live WM instance (changes across a recovery). *)

val restarts : t -> int
val gave_up : t -> bool

val set_sleep : t -> (int -> unit) -> unit
(** Install the backoff sleep (milliseconds).  Defaults to [ignore] so
    tests and benchmarks run at full speed; a production loop installs a
    real sleep. *)

val set_max_restarts : t -> int -> unit
val set_backoff : t -> base_ms:int -> max_ms:int -> unit

val step : ?drive:(Ctx.t -> int) -> t -> outcome
(** One supervised step: run [drive] (default {!Wm.step}) on the live WM.
    An escaped exception, or a watchdog-stall delta of at least the stall
    limit, triggers {!recover}. *)

val recover : t -> reason:string -> outcome
(** Force a recovery: save the session (SWM_PLACES re-seed + autosave),
    write a crash report, shut the WM down, and restart it with
    exponential backoff.  Returns [Recovered] or [Gave_up]. *)
