(** Icons (paper §4.1.2-§4.1.5).

    swm has no idea what an icon should look like: icon appearance panels
    describe it.  The special buttons [iconname] (shows WM_ICON_NAME) and
    [iconimage] (shows the client's icon pixmap, its own icon window, or the
    [xlogo32] default) get their content filled in here.

    Icon holder panels are special root panels that collect actual icons —
    optionally per client class, hidden when empty, or sized to fit. *)

val iconify : Ctx.t -> Ctx.client -> unit
(** Hide the frame, build/realize the icon (in a matching holder if any,
    else at the remembered/requested/default icon position on the desktop),
    and set WM_STATE to Iconic.  No-op when already iconic. *)

val deiconify : Ctx.t -> Ctx.client -> unit
(** Remove the icon (remembering its position), re-map and raise the frame,
    set WM_STATE to Normal. *)

val icon_position : Ctx.t -> Ctx.client -> Swm_xlib.Geom.point
(** Where the icon is (or would be): remembered position, WM_HINTS icon
    position, or the next cascade slot. *)

val client_of_icon_object : Ctx.t -> Swm_oi.Wobj.t -> Ctx.client option

(** {1 Holders} *)

val create_holders : Ctx.t -> screen:int -> unit
(** Build the holders named by the [iconHolders] resource; each holder [H]
    reads [iconHolder.H.classes], [.geometry], [.hideWhenEmpty] and
    [.sizeToFit]. *)

val find_holder : Ctx.t -> screen:int -> string -> Ctx.holder option

val scroll_holder : Ctx.t -> Ctx.holder -> int -> unit
(** Scroll a fixed-size ("scrolling window") holder by a pixel delta,
    clamped to the content; no-op for size-to-fit holders.  Exposed to
    bindings as [f.scrollHolder(name,delta)]. *)

(** {1 Root icons} *)

val create_root_icons : Ctx.t -> screen:int -> unit
(** Realize the icon-appearance panels named by the [rootIcons] resource as
    free-standing icons: they correspond to no client and cannot be
    deiconified, but carry bindings like any object (paper §4.1.3). *)
