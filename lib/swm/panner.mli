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
(** The full reconcile: bring the panner to its wanted content by walking
    every frame of the current desktop and every miniature.  The wanted
    content is the viewport outline at the bottom, then one miniature per
    non-sticky, Normal-state client on the current desktop, in the
    stacking order of the frames, each at its frame's geometry divided by
    the scale.  Only the difference costs requests:
    - a client that joins or leaves the panner creates (and maps) or
      destroys its miniature;
    - a window whose scaled rectangle changed, the outline included, gets
      one move-resize;
    - windows outside the longest run already in stacking order are each
      restacked directly above their wanted predecessor, so one raise or
      lower costs one request.
    A refresh with nothing changed issues none, scrollbar thumbs included.
    [Ctx.panner_minis] holds exactly the live miniatures, and each shown
    client's [mini] is its miniature.  No handler calls it: it is the spec
    {!apply_damage} is tested against, the governor's resync when it
    restores the full tier, and what [Panner.create]'s first reconcile
    runs.  Skipped (and counted) below the full governor tier. *)

val apply_damage : Ctx.t -> unit
(** The step reconcile, run once at the end of every [Wm.step]: apply
    each screen's {!Ctx.damage} and clear it.  Afterwards the panner shows
    exactly what {!refresh} would make it show, so the content rule holds
    at every step boundary (not after each handler).
    It visits only the damaged clients, each change costing one request:
    - a moved or resized frame places that client's miniature, except
      that a client under an interactive move or resize is placed when
      the gesture ends (as before: each motion step would otherwise cost
      a request);
    - restacks replay in the order they happened: a raise puts the
      miniature on top, a lower directly above the outline;
    - a client that left loses its miniature (a client unmanaged during
      the step included; its other damage is dropped); a single joiner
      whose frame is the topmost shown frame gets a miniature on top;
    - a pan places the outline and the scrollbar thumbs.
    More than one joiner, a joiner lower in the stack, a desktop switch or
    resize, a panner resize, and a panner never reconciled take the full
    reconcile for that screen.  A step with no damage costs O(1) per
    screen.  Runs in the [panner.refresh] span and [panner.refresh_ns]
    histogram; counts every frame or miniature it looks up in
    [panner.frames_examined] ({!refresh} counts there too).  Below the
    full tier the damage is discarded and counted in
    [governor.refreshes_skipped]. *)

val is_panner : Ctx.t -> Ctx.client -> bool

val client_of_miniature : Ctx.t -> Swm_xlib.Xid.t -> Ctx.client option
(** The client a miniature shows, if that client is still managed (a
    skipped reconcile can leave a dead client's miniature behind). *)

val desktop_pos_of_panner_pos :
  Ctx.t -> screen:int -> Swm_xlib.Geom.point -> Swm_xlib.Geom.point
(** Scale a panner-interior position up to desktop coordinates. *)

val pan_to_pointer : Ctx.t -> screen:int -> panner_pos:Swm_xlib.Geom.point -> unit
(** Button-1 action: centre the viewport on the pressed desktop position. *)

val panner_resized : Ctx.t -> Ctx.client -> int * int -> unit
(** Resizing the panner resizes the underlying desktop (paper §6.1). *)
