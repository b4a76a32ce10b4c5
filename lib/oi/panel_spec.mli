(** Building object trees from panel definitions in the resource database.

    A panel definition (paper §4.1) is a whitespace-separated list of
    [object-type object-name position] triples:

    {v
Swm*panel.openLook: \
    button pulldown +0+0 \
    button name     +C+0 \
    button nail     -0+0 \
    panel  client   +0+1
    v}

    Nested panels are resolved by looking their own definition up through
    [lookup]; a nested panel without a definition (like the special [client]
    panel) becomes an empty panel. *)

type item = Wobj.item = {
  item_kind : Wobj.kind;
  item_name : string;
  position : Swm_xlib.Geom.spec;
}

val parse : string -> (item list, string) result
(** Parse the triples of a definition string. *)

val build :
  Wobj.toolkit ->
  lookup:(string -> string option) ->
  kind:Wobj.kind ->
  name:string ->
  (Wobj.t, string) result
(** [build tk ~lookup ~kind ~name] constructs the (unrealized) object tree
    for panel/menu [name], resolving nested definitions through [lookup]
    (typically [fun n -> query "panel.<n>"]).  Cycles are reported as
    errors rather than looping.  Each definition text is parsed once per
    database generation ({!Wobj.definition}). *)

val build_from_spec :
  Wobj.toolkit ->
  lookup:(string -> string option) ->
  kind:Wobj.kind ->
  name:string ->
  spec:string ->
  (Wobj.t, string) result
(** Like {!build} but with the root definition supplied directly. *)
