(** Named 1-bit bitmaps.

    The stand-in for the X bitmap files of the era ([xlogo32], mail flags,
    trash cans...): each bitmap is a small grid of set/clear cells, drawn
    by {!Render} as character art.  swm's [iconimage] button and any
    object's [image] attribute resolve names through {!find}. *)

type t = private {
  name : string;
  width : int;  (** in cells *)
  height : int;
  rows : string list;  (** [height] strings of [width] chars; space = clear *)
}

val make : name:string -> rows:string list -> t
(** Validates shape: at least one row, all rows the same width.
    Raises [Invalid_argument] otherwise. *)

val find : string -> t option
(** Look up a stock bitmap by name. *)

val names : unit -> string list

val xlogo32 : t
(** The default icon image of the paper's Xicon template. *)

val mail : t
val terminal : t
val trash : t
