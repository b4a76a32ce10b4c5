type point = { px : int; py : int }
type rect = { x : int; y : int; w : int; h : int }

let rect x y w h = { x; y; w; h }
let point px py = { px; py }

let pp_rect ppf r = Format.fprintf ppf "%dx%d%+d%+d" r.w r.h r.x r.y
let pp_point ppf p = Format.fprintf ppf "(%d,%d)" p.px p.py

let rect_equal a b = a.x = b.x && a.y = b.y && a.w = b.w && a.h = b.h

let contains r p =
  p.px >= r.x && p.px < r.x + r.w && p.py >= r.y && p.py < r.y + r.h

let intersect a b =
  let x0 = max a.x b.x and y0 = max a.y b.y in
  let x1 = min (a.x + a.w) (b.x + b.w) and y1 = min (a.y + a.h) (b.y + b.h) in
  if x1 > x0 && y1 > y0 then Some { x = x0; y = y0; w = x1 - x0; h = y1 - y0 }
  else None

let union_bounds a b =
  let x0 = min a.x b.x and y0 = min a.y b.y in
  let x1 = max (a.x + a.w) (b.x + b.w) and y1 = max (a.y + a.h) (b.y + b.h) in
  { x = x0; y = y0; w = x1 - x0; h = y1 - y0 }

let translate r ~dx ~dy = { r with x = r.x + dx; y = r.y + dy }

let clamp_into r ~within =
  let clamp_axis pos size lo extent =
    if size >= extent then lo
    else if pos < lo then lo
    else if pos + size > lo + extent then lo + extent - size
    else pos
  in
  {
    r with
    x = clamp_axis r.x r.w within.x within.w;
    y = clamp_axis r.y r.h within.y within.h;
  }

type offset = From_start of int | From_end of int | Centered

type spec = {
  width : int option;
  height : int option;
  xoff : offset option;
  yoff : offset option;
}

exception Syntax of string

(* Hand-rolled scanner over the string: [WxH][{+-}X{+-}Y].  We accept 'C'
   (or 'c') for a centred offset after '+', per swm's panel-position
   extension. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Syntax (Printf.sprintf "%s at index %d in %S" msg !pos s)) in
  let number () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected a number"
    else int_of_string (String.sub s start (!pos - start))
  in
  let offset () =
    match peek () with
    | Some '+' ->
        incr pos;
        (match peek () with
        | Some ('C' | 'c') ->
            incr pos;
            Some Centered
        | _ -> Some (From_start (number ())))
    | Some '-' ->
        incr pos;
        Some (From_end (number ()))
    | _ -> None
  in
  try
    let width, height =
      match peek () with
      | Some '0' .. '9' ->
          let w = number () in
          (match peek () with
          | Some ('x' | 'X') ->
              incr pos;
              (Some w, Some (number ()))
          | _ -> fail "expected 'x' after width")
      | _ -> (None, None)
    in
    let xoff = offset () in
    let yoff = offset () in
    if !pos <> n then fail "trailing characters"
    else if width = None && xoff = None then fail "empty geometry"
    else Ok { width; height; xoff; yoff }
  with
  | Syntax msg -> Error msg
  | Failure _ ->
      (* int_of_string overflow: a numeral too large for an int *)
      Error (Printf.sprintf "number out of range in %S" s)

let parse_exn s =
  match parse s with
  | Ok spec -> spec
  | Error msg -> invalid_arg ("Geom.parse_exn: " ^ msg)

let to_string spec =
  let buf = Buffer.create 16 in
  (match (spec.width, spec.height) with
  | Some w, Some h -> Buffer.add_string buf (Printf.sprintf "%dx%d" w h)
  | Some w, None -> Buffer.add_string buf (string_of_int w)
  | None, _ -> ());
  let add_offset = function
    | None -> ()
    | Some (From_start n) -> Buffer.add_string buf (Printf.sprintf "+%d" n)
    | Some (From_end n) -> Buffer.add_string buf (Printf.sprintf "-%d" n)
    | Some Centered -> Buffer.add_string buf "+C"
  in
  add_offset spec.xoff;
  add_offset spec.yoff;
  Buffer.contents buf

let resolve spec ~default ~within =
  let w = Option.value spec.width ~default:default.w in
  let h = Option.value spec.height ~default:default.h in
  let place off size extent fallback =
    match off with
    | None -> fallback
    | Some (From_start n) -> n
    | Some (From_end n) -> extent - size - n
    | Some Centered -> (extent - size) / 2
  in
  {
    x = within.x + place spec.xoff w within.w (default.x - within.x);
    y = within.y + place spec.yoff h within.h (default.y - within.y);
    w;
    h;
  }
