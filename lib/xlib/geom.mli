(** Points, rectangles and X geometry strings.

    Geometry strings follow the X convention ["WxH±X±Y"], where a ['-']
    offset is measured from the right/bottom edge of the enclosing area.
    swm panel positions additionally allow the column component to be ['C']
    (centre the object within its row), e.g. ["+C+0"]. *)

type point = { px : int; py : int }

type rect = { x : int; y : int; w : int; h : int }
(** A rectangle; [x, y] is the upper-left corner in the parent's coordinate
    system, [w, h] the interior size (borders are accounted separately). *)

val rect : int -> int -> int -> int -> rect
val point : int -> int -> point

val pp_rect : Format.formatter -> rect -> unit
val pp_point : Format.formatter -> point -> unit

val rect_equal : rect -> rect -> bool

val contains : rect -> point -> bool
(** [contains r p] is true when [p] lies inside [r] (inclusive of the
    upper-left corner, exclusive of the lower-right edge). *)

val intersect : rect -> rect -> rect option
val union_bounds : rect -> rect -> rect

val translate : rect -> dx:int -> dy:int -> rect

val clamp_into : rect -> within:rect -> rect
(** Move (never resize) [rect] so that as much of it as possible lies inside
    [within]; used for viewport clamping when panning the Virtual Desktop. *)

(** {1 Geometry strings} *)

type offset =
  | From_start of int  (** ["+N"]: N from the left/top edge *)
  | From_end of int    (** ["-N"]: N from the right/bottom edge *)
  | Centered           (** ["+C"]: centred (swm panel extension) *)

type spec = {
  width : int option;
  height : int option;
  xoff : offset option;
  yoff : offset option;
}

val parse : string -> (spec, string) result
(** Parse a geometry string such as ["120x120+1010+359"], ["+C+0"], ["-0+1"]
    or ["80x24"].  Returns [Error] with a human-readable message on syntax
    errors. *)

val parse_exn : string -> spec
(** Like {!parse}; raises [Invalid_argument] on malformed input. *)

val to_string : spec -> string

val resolve : spec -> default:rect -> within:rect -> rect
(** Instantiate a geometry spec against the enclosing rectangle [within]:
    missing width/height come from [default]; [From_end] offsets are measured
    from the far edge (X semantics: [-0] puts the window flush against it);
    [Centered] centres along that axis. *)
