(** The Virtual Desktop panner (paper §6.1, Figure 3).

    A miniature representation of the whole desktop: one tiny window per
    managed client plus an outline showing the current viewport.  Button 1
    inside the panner pans the desktop to the pressed position; button 2 on
    a miniature starts a move of the corresponding client — dropping it
    anywhere in the panner repositions the real window, and crossing out of
    (or into) the panner mid-move switches between miniature and full-size
    coordinates, both directions (the paper's two crossing cases).

    The panner itself is an ordinary client window: swm reparents it, so it
    can be moved, iconified and resized like anything else; it starts
    sticky (it must not scroll off with the desktop), and resizing it
    resizes the desktop. *)

val create : Ctx.t -> screen:int -> Swm_xlib.Xid.t option
(** Create the panner client window (WM_CLASS [panner.Panner]) if the
    [panner] resource asks for one and the screen has a virtual desktop.
    Returns the client window, to be managed by {!Wm} like any client. *)

val refresh : Ctx.t -> screen:int -> unit
(** Reconcile the panner with its wanted content: the viewport outline at
    the bottom, then one miniature per non-sticky, Normal-state client on
    the current desktop, in the stacking order of the frames, each at its
    frame's geometry divided by the scale.  Only the difference costs
    requests:
    - a client that joins or leaves the panner creates (and maps) or
      destroys its miniature;
    - a window whose scaled rectangle changed, the outline included, gets
      one move-resize;
    - windows outside the longest run already in stacking order are each
      restacked directly above their wanted predecessor, so one raise or
      lower costs one request.
    A refresh with nothing changed issues none, scrollbar thumbs included.
    [Ctx.panner_minis] holds exactly the live miniatures.  Skipped (and
    counted) below the full governor tier. *)

val is_panner : Ctx.t -> Ctx.client -> bool

val client_of_miniature : Ctx.t -> Swm_xlib.Xid.t -> Ctx.client option

val desktop_pos_of_panner_pos :
  Ctx.t -> screen:int -> Swm_xlib.Geom.point -> Swm_xlib.Geom.point
(** Scale a panner-interior position up to desktop coordinates. *)

val pan_to_pointer : Ctx.t -> screen:int -> panner_pos:Swm_xlib.Geom.point -> unit
(** Button-1 action: centre the viewport on the pressed desktop position. *)

val panner_resized : Ctx.t -> Ctx.client -> int * int -> unit
(** Resizing the panner resizes the underlying desktop (paper §6.1). *)
