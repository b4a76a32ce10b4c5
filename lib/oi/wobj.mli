(** The OI toolkit: generic window objects.

    swm deals with four basic object kinds — panels, buttons, text objects
    and menus (paper §4).  All four share one representation, so any object
    "can be treated as a generic base class object when dealing with
    attribute settings" (§2): attributes (colour, cursor, bindings, shape)
    are looked up uniformly through the X resource database, and layout
    treats children generically.

    Objects form trees; each realized object owns one X window.  Panels
    arrange children in rows, with the column/row position of each child
    taken from an X geometry string (["+0+1"] = column 0, row 1; ["+C+0"] =
    centred in row 0; ["-0+0"] = rightmost in row 0). *)

type kind = Panel | Button | Text | Menu

val kind_name : kind -> string
(** The resource component: ["panel"], ["button"], ["text"], ["menu"]. *)

val kind_class : kind -> string

type toolkit
type t

(** {1 Toolkit} *)

val create_toolkit :
  server:Swm_xlib.Server.t ->
  conn:Swm_xlib.Server.conn ->
  screen:int ->
  query:(names:string list -> classes:string list -> string option) ->
  toolkit
(** [query] resolves an attribute path (names/classes *below* whatever
    application- and screen-level prefix the WM established) against the
    resource database.  It must answer from resource databases only: the
    toolkit keeps its answers, per object class, until the next write to
    any database ({!Swm_xrdb.Xrdb.generation}), so an answer that depends
    on anything else goes stale. *)

val toolkit_server : toolkit -> Swm_xlib.Server.t
val toolkit_conn : toolkit -> Swm_xlib.Server.conn
val toolkit_screen : toolkit -> int

val find_object : toolkit -> Swm_xlib.Xid.t -> t option
(** Dispatch: the object owning that X window, if any. *)

val find_objects_by_name : toolkit -> string -> t list
(** All realized objects with that name (names need not be unique: every
    openLook decoration has a [name] button).  Supports the dynamic
    appearance/bindings functions (paper §4.2). *)

(** {1 Objects} *)

val make : toolkit -> kind -> name:string -> t
val name : t -> string
val kind : t -> kind
val toolkit : t -> toolkit
val parent : t -> t option
val children : t -> t list
val window : t -> Swm_xlib.Xid.t
(** Raises [Invalid_argument] if the object is not realized. *)

val is_realized : t -> bool

val add_child : t -> t -> position:Swm_xlib.Geom.spec -> unit
(** Attach a child to a panel/menu with its row/column position spec.
    Raises [Invalid_argument] when the parent cannot hold children. *)

val remove_child : t -> t -> unit
val find_descendant : t -> name:string -> t option

(** {1 Attributes} *)

val set_attr : t -> string -> string -> unit
(** Local override, shadowing the resource database. *)

val attr : t -> string -> string option
(** [attr obj "bindings"] — local overrides first, then the resource
    database under path [<kind>.<name>.<attr>].  The database answer comes
    from the attribute record of the object's class, (kind, name), which
    every object of that class shares; the toolkit's [query] runs only for
    an attribute the record does not hold yet, or when a database has been
    written since the record was filled. *)

val records : toolkit -> int
(** Attribute records the toolkit holds: one per class made since the last
    database write. *)

val record_hits : toolkit -> int
(** {!attr} reads answered from a record, without calling [query]. *)

type item = { item_kind : kind; item_name : string; position : Swm_xlib.Geom.spec }
(** One [object-type object-name position] triple of a panel definition
    ({!Panel_spec}). *)

val definition :
  toolkit -> string -> parse:(string -> (item list, string) result) ->
  (item list, string) result
(** [definition tk text ~parse] is [parse text], kept by text beside the
    attribute records and dropped with them at the next database write. *)

val layouts : toolkit -> int
(** Layout passes: panels with children whose rows the toolkit has laid
    out.  {!realize} and {!relayout} lay out each such panel of the tree
    once. *)

val attr_bool : t -> string -> default:bool -> bool

val set_label : t -> string -> unit
(** Button/text content; triggers re-layout of the enclosing tree when the
    natural size changes (dynamic appearance, §4.2). *)

val label : t -> string

val set_external_size : t -> (int * int) option -> unit
(** Impose a size from outside the layout (used for the special [client]
    panel, whose size is the client window's). *)

val add_event_masks : t -> Swm_xlib.Event.mask list -> unit
(** Masks the object's window selects beside the toolkit's own, in the
    CreateWindow of {!realize}; call before realizing (used for the
    [client] panel's SubstructureRedirect). *)

val natural_size : t -> int * int

(** {1 Realization and layout} *)

val realize :
  ?override_redirect:bool ->
  t ->
  parent_window:Swm_xlib.Xid.t ->
  at:Swm_xlib.Geom.point ->
  unit
(** Create the X windows for the object tree, as an X toolkit realizes a
    widget tree, and register every window for dispatch.  Image labels are
    resolved over the whole tree first; then each panel is laid out once
    and every window is created at its final geometry (the root's origin
    at [at]), its event selection made inside the CreateWindow.  One
    MapSubwindows per panel with children maps them; the root stays
    unmapped.  Each shape attribute is applied once.  The cost is one
    request per window, one per panel with children and one per shape.
    Windows are created depth first, a panel's children in row order, so
    ids and stacking are those of one create per object in that order.
    [override_redirect] (top-level window only) bypasses the window
    manager — used for menus. *)

val unrealize : t -> unit
(** Destroy the tree's windows with one DestroyWindow on the object's own
    window, if it still exists (X destroys the inferiors with it), and
    drop every object of the tree from the registry. *)

val relayout : t -> unit
(** Recompute the layout of a realized tree (e.g. after a label change or a
    client resize) and reconfigure the windows whose geometry changed.
    Each panel is laid out once. *)

val geometry : t -> Swm_xlib.Geom.rect
(** Parent-window-relative geometry of the realized object. *)

val map : t -> unit
val unmap : t -> unit

(** {1 Reference hooks}

    The per-window realization {!realize} replaced is kept in the test
    suite ([test/reference/]) as the reference the realization properties
    compare against.  It runs over this toolkit and needs these views of an
    object's private state.  Nothing else calls them. *)

module Private : sig
  val layout_children : t -> (t * Swm_xlib.Geom.rect) list
  (** The children's rectangles, each including the child's border, in
      creation order. *)

  val bind : t -> Swm_xlib.Xid.t -> unit
  (** Set the object's window and register it for dispatch;
      {!Swm_xlib.Xid.none} unregisters it. *)

  val set_geometry : t -> Swm_xlib.Geom.rect -> unit
  val set_text : t -> string -> unit
  (** The label, with no request and no relayout. *)

  val event_masks : t -> Swm_xlib.Event.mask list
  (** Every mask the object's window selects: the added ones, then the
      toolkit's own. *)

  val apply_shape : t -> unit
end
