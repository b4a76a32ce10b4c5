(** Out-of-process command execution (paper §4.3).

    Any client can drive swm by writing command strings to the SWM_COMMAND
    property on a root window; swm reads and deletes the property and
    executes each line.  Functions that need a window put swm into
    prompting mode (the pointer "changes to a question mark") — the next
    button press selects the target.

    [f.query(SECTION[,ARG])] runs the channel in reverse: swm writes the
    reply to the SWM_RESULT root property, which the sender reads back with
    {!read_result}. *)

val send :
  Swm_xlib.Server.t -> Swm_xlib.Server.conn -> screen:int -> string -> unit
(** Client side: append one command line to the root property, as the
    [swmcmd] shell utility does. *)

val read_result : Swm_xlib.Server.t -> screen:int -> string option
(** Client side: the current SWM_RESULT reply, if any — the text written by
    the most recent [f.query] or failed line swm executed. *)

val handle_property_change : Ctx.t -> screen:int -> unit
(** WM side: called on PropertyNotify for SWM_COMMAND — drain and execute.
    A line that fails to parse, or names an unknown function, is not
    silently dropped: it replies [{"error":msg}] on SWM_RESULT, bumps the
    [swmcmd.errors] counter and, when tracing is on, records a
    [swmcmd.error] instant carrying the offending line. *)
