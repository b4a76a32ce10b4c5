module Server = Swm_xlib.Server
module Xrdb = Swm_xrdb.Xrdb

type t = {
  db : Xrdb.t;
  srv : Server.t;
  prefixes : (string list * string list) array;
      (** per screen: the [swm.<color>.screenN] names and classes *)
}

let capitalize = String.capitalize_ascii

let create db srv =
  let prefix screen =
    let color_name =
      if Server.screen_monochrome srv ~screen then "monochrome" else "color"
    in
    ( [ "swm"; color_name; Printf.sprintf "screen%d" screen ],
      [ "Swm"; capitalize color_name; "Screen" ] )
  in
  { db; srv; prefixes = Array.init (Server.screen_count srv) prefix }

let db t = t.db
let server t = t.srv

let query t ~screen ~names ~classes =
  let pn, pc = t.prefixes.(screen) in
  Xrdb.query t.db ~names:(pn @ names) ~classes:(pc @ classes)

let query1 t ~screen name =
  query t ~screen ~names:[ name ] ~classes:[ capitalize name ]

type client_scope = {
  instance : string;
  class_ : string;
  shaped : bool;
  sticky : bool;
}

(* Specific-resource query: the class and the instance are *separate*
   components in swm's syntax (swm.color.screen0.XClock.xclock.decoration),
   so the query carries two client levels — one matchable by class, one by
   instance name.  [shaped] and [sticky] state components are inserted
   before them when applicable, so decorations can depend on those states.
   An instance no entry mentions asks as [""] instead, which gives the same
   answer (see [Xrdb.mentions]) under one memo key for every such
   instance. *)
let query_client t ~screen scope resource =
  let pn, pc = t.prefixes.(screen) in
  let instance = if Xrdb.mentions t.db scope.instance then scope.instance else "" in
  let state_names, state_classes =
    List.split
      (List.filter_map
         (fun (set, tag) -> if set then Some (tag, capitalize tag) else None)
         [ (scope.shaped, "shaped"); (scope.sticky, "sticky") ])
  in
  let names =
    pn @ state_names @ [ instance; instance; resource ]
  and classes =
    pc @ state_classes @ [ scope.class_; scope.class_; capitalize resource ]
  in
  Xrdb.query t.db ~names ~classes

let query_client_bool t ~screen scope resource ~default =
  Option.value ~default
    (Option.bind (query_client t ~screen scope resource) Xrdb.parse_bool)

let object_query t ~screen ~names ~classes = query t ~screen ~names ~classes

let panel_definition t ~screen name =
  query t ~screen ~names:[ "panel"; name ] ~classes:[ "Panel"; capitalize name ]

let menu_definition t ~screen name =
  query t ~screen ~names:[ "menu"; name ] ~classes:[ "Menu"; capitalize name ]
