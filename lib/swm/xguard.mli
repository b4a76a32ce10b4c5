(** X-error discipline: absorb {!Swm_xlib.Server.Bad_window} /
    {!Swm_xlib.Server.Bad_access} at operation boundaries.

    A client may die between any two of the WM's requests (the twm
    "client died mid-reparent" race); the server then answers the next
    request touching its windows with an X error.  A real WM installs an
    error handler and carries on — crashing the WM takes every client's
    session down with it.  Here the equivalent discipline is a guard at
    each operation boundary: the error is counted ([wm.xerrors]),
    recorded durably in the tracing slow log ([wm.xerror] with the
    offending operation and error text), logged, and the operation
    abandoned; the caller then cleans up (typically by unmanaging the
    dead client) instead of unwinding the whole event loop.

    Only the two X-error exceptions are absorbed; programming errors
    still propagate. *)

val absorbed : Ctx.t -> where:string -> string -> unit
(** Record one absorbed error without catching anything (for callers
    doing their own matching). *)

val absorb : Ctx.t -> where:string -> exn -> unit
(** {!absorbed} for a caught [Bad_window]/[Bad_access], with its error
    text; any other exception is re-raised. *)

val protect : Ctx.t -> where:string -> (unit -> 'a) -> 'a option
(** Run the thunk; [None] if a [Bad_window]/[Bad_access] was absorbed. *)

val run : Ctx.t -> where:string -> (unit -> unit) -> unit
(** {!protect} for effects: absorb and move on. *)
