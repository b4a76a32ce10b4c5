type request =
  | Create_window of {
      wid : Xid.t;  (** the id the client chose for the window, so later
                        requests can refer to it (X clients allocate ids) *)
      parent : Xid.t;
      geom : Geom.rect;
      border : int;
      override_redirect : bool;
    }
  | Destroy_window of Xid.t
  | Map_window of Xid.t
  | Unmap_window of Xid.t
  | Configure_window of Xid.t * Event.config_changes
  | Reparent_window of { window : Xid.t; parent : Xid.t; pos : Geom.point }
  | Change_property of { window : Xid.t; name : string; value : string }
  | Delete_property of { window : Xid.t; name : string }
  | Select_input of { window : Xid.t; masks : Event.mask list }
  | Grab_pointer of Xid.t
  | Ungrab_pointer
  | Warp_pointer of Geom.point
  | Set_input_focus of Xid.t
  | Shape_rectangles of { window : Xid.t; rects : Geom.rect list }
  | Add_to_save_set of Xid.t
  | Remove_from_save_set of Xid.t

let pp_request ppf = function
  | Create_window { wid; parent; geom; _ } ->
      Format.fprintf ppf "CreateWindow(%a parent=%a %a)" Xid.pp wid Xid.pp parent
        Geom.pp_rect geom
  | Destroy_window w -> Format.fprintf ppf "DestroyWindow(%a)" Xid.pp w
  | Map_window w -> Format.fprintf ppf "MapWindow(%a)" Xid.pp w
  | Unmap_window w -> Format.fprintf ppf "UnmapWindow(%a)" Xid.pp w
  | Configure_window (w, _) -> Format.fprintf ppf "ConfigureWindow(%a)" Xid.pp w
  | Reparent_window { window; parent; _ } ->
      Format.fprintf ppf "ReparentWindow(%a -> %a)" Xid.pp window Xid.pp parent
  | Change_property { window; name; _ } ->
      Format.fprintf ppf "ChangeProperty(%a %s)" Xid.pp window name
  | Delete_property { window; name } ->
      Format.fprintf ppf "DeleteProperty(%a %s)" Xid.pp window name
  | Select_input { window; _ } -> Format.fprintf ppf "SelectInput(%a)" Xid.pp window
  | Grab_pointer w -> Format.fprintf ppf "GrabPointer(%a)" Xid.pp w
  | Ungrab_pointer -> Format.fprintf ppf "UngrabPointer"
  | Warp_pointer p -> Format.fprintf ppf "WarpPointer%a" Geom.pp_point p
  | Set_input_focus w -> Format.fprintf ppf "SetInputFocus(%a)" Xid.pp w
  | Shape_rectangles { window; rects } ->
      Format.fprintf ppf "ShapeRectangles(%a %d rects)" Xid.pp window
        (List.length rects)
  | Add_to_save_set w -> Format.fprintf ppf "AddToSaveSet(%a)" Xid.pp w
  | Remove_from_save_set w -> Format.fprintf ppf "RemoveFromSaveSet(%a)" Xid.pp w

(* -------- byte-level writer / reader (little endian) -------- *)

module W = struct
  let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

  let u16 buf v =
    u8 buf (v land 0xff);
    u8 buf ((v lsr 8) land 0xff)

  let u32 buf v =
    u16 buf (v land 0xffff);
    u16 buf ((v lsr 16) land 0xffff)

  (* Signed 32-bit two's complement. *)
  let i32 buf v = u32 buf (v land 0xffffffff)

  let string16 buf s =
    u16 buf (String.length s);
    Buffer.add_string buf s

  let pad4 buf =
    while Buffer.length buf mod 4 <> 0 do
      u8 buf 0
    done
end

module R = struct
  exception Short

  let u8 s pos =
    if !pos >= String.length s then raise Short
    else begin
      let v = Char.code s.[!pos] in
      incr pos;
      v
    end

  let u16 s pos =
    let lo = u8 s pos in
    let hi = u8 s pos in
    lo lor (hi lsl 8)

  let u32 s pos =
    let lo = u16 s pos in
    let hi = u16 s pos in
    lo lor (hi lsl 16)

  let i32 s pos =
    let v = u32 s pos in
    if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

  let string16 s pos =
    let n = u16 s pos in
    if !pos + n > String.length s then raise Short
    else begin
      let v = String.sub s !pos n in
      pos := !pos + n;
      v
    end
end

(* A growable Bytes arena with an explicit cursor: the zero-copy encode
   path.  One arena is reused across frames (per connection, or the
   domain-local scratch below), so steady-state encoding allocates
   nothing but the final [contents] string.  Reuse is safe because a
   frame is always fully materialized (via [contents] / [sub_string])
   before the arena is reset for the next one. *)
module A = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create (max n 64); len = 0 }
  let reset a = a.len <- 0
  let length a = a.len

  let ensure a extra =
    let need = a.len + extra in
    if need > Bytes.length a.buf then begin
      let cap = ref (Bytes.length a.buf * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit a.buf 0 bigger 0 a.len;
      a.buf <- bigger
    end

  let u8 a v =
    ensure a 1;
    Bytes.unsafe_set a.buf a.len (Char.unsafe_chr (v land 0xff));
    a.len <- a.len + 1

  let u16 a v =
    ensure a 2;
    Bytes.unsafe_set a.buf a.len (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set a.buf (a.len + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    a.len <- a.len + 2

  let u32 a v =
    ensure a 4;
    let b = a.buf and p = a.len in
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
    a.len <- p + 4

  (* Signed 32-bit two's complement. *)
  let i32 a v = u32 a (v land 0xffffffff)

  let string16 a s =
    let n = String.length s in
    u16 a n;
    ensure a n;
    Bytes.blit_string s 0 a.buf a.len n;
    a.len <- a.len + n

  (* Patch an already-written slot (length fields are reserved first,
     filled once the payload size is known: the single-pass framing). *)
  let patch_u16 a off v =
    Bytes.unsafe_set a.buf off (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set a.buf (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

  let patch_u32 a off v =
    patch_u16 a off (v land 0xffff);
    patch_u16 a (off + 2) ((v lsr 16) land 0xffff)

  let zero_fill_to a target =
    if target > a.len then begin
      ensure a (target - a.len);
      Bytes.fill a.buf a.len (target - a.len) '\000';
      a.len <- target
    end

  let contents a = Bytes.sub_string a.buf 0 a.len
end

(* -------- request framing -------- *)

let opcode = function
  | Create_window _ -> 1
  | Destroy_window _ -> 2
  | Map_window _ -> 3
  | Unmap_window _ -> 4
  | Configure_window _ -> 5
  | Reparent_window _ -> 6
  | Change_property _ -> 7
  | Delete_property _ -> 8
  | Select_input _ -> 9
  | Grab_pointer _ -> 10
  | Ungrab_pointer -> 11
  | Warp_pointer _ -> 12
  | Set_input_focus _ -> 13
  | Shape_rectangles _ -> 14
  | Add_to_save_set _ -> 15
  | Remove_from_save_set _ -> 16

let mask_bit = function
  | Event.Substructure_redirect -> 0x001
  | Event.Substructure_notify -> 0x002
  | Event.Structure_notify -> 0x004
  | Event.Property_change -> 0x008
  | Event.Button_press_mask -> 0x010
  | Event.Button_release_mask -> 0x020
  | Event.Key_press_mask -> 0x040
  | Event.Pointer_motion_mask -> 0x080
  | Event.Enter_leave_mask -> 0x100
  | Event.Exposure_mask -> 0x200
  | Event.Focus_change_mask -> 0x400

let all_masks =
  [
    Event.Substructure_redirect; Event.Substructure_notify; Event.Structure_notify;
    Event.Property_change; Event.Button_press_mask; Event.Button_release_mask;
    Event.Key_press_mask; Event.Pointer_motion_mask; Event.Enter_leave_mask;
    Event.Exposure_mask; Event.Focus_change_mask;
  ]

let encode_masks masks = List.fold_left (fun acc m -> acc lor mask_bit m) 0 masks
let decode_masks bits = List.filter (fun m -> bits land mask_bit m <> 0) all_masks

let write_rect buf (r : Geom.rect) =
  W.i32 buf r.x;
  W.i32 buf r.y;
  W.u32 buf r.w;
  W.u32 buf r.h

let read_rect s pos =
  let x = R.i32 s pos in
  let y = R.i32 s pos in
  let w = R.u32 s pos in
  let h = R.u32 s pos in
  Geom.rect x y w h

let write_payload buf = function
  | Create_window { wid; parent; geom; border; override_redirect } ->
      W.u32 buf (Xid.to_int wid);
      W.u32 buf (Xid.to_int parent);
      write_rect buf geom;
      W.u16 buf border;
      W.u8 buf (if override_redirect then 1 else 0)
  | Destroy_window w | Map_window w | Unmap_window w | Grab_pointer w
  | Set_input_focus w | Add_to_save_set w | Remove_from_save_set w ->
      W.u32 buf (Xid.to_int w)
  | Ungrab_pointer -> ()
  | Configure_window (w, changes) ->
      W.u32 buf (Xid.to_int w);
      let bit i = function Some _ -> 1 lsl i | None -> 0 in
      let present =
        bit 0 changes.cx lor bit 1 changes.cy lor bit 2 changes.cw
        lor bit 3 changes.ch lor bit 4 changes.cborder lor bit 5 changes.cstack
        lor bit 6 changes.csibling
      in
      W.u16 buf present;
      List.iter
        (function Some v -> W.i32 buf v | None -> ())
        [ changes.cx; changes.cy; changes.cw; changes.ch; changes.cborder ];
      (match changes.cstack with
      | Some Event.Above -> W.u8 buf 0
      | Some Event.Below -> W.u8 buf 1
      | None -> ());
      (match changes.csibling with
      | Some s -> W.u32 buf (Xid.to_int s)
      | None -> ())
  | Reparent_window { window; parent; pos } ->
      W.u32 buf (Xid.to_int window);
      W.u32 buf (Xid.to_int parent);
      W.i32 buf pos.Geom.px;
      W.i32 buf pos.Geom.py
  | Change_property { window; name; value } ->
      W.u32 buf (Xid.to_int window);
      W.string16 buf name;
      W.string16 buf value
  | Delete_property { window; name } ->
      W.u32 buf (Xid.to_int window);
      W.string16 buf name
  | Select_input { window; masks } ->
      W.u32 buf (Xid.to_int window);
      W.u16 buf (encode_masks masks)
  | Warp_pointer p ->
      W.i32 buf p.Geom.px;
      W.i32 buf p.Geom.py
  | Shape_rectangles { window; rects } ->
      W.u32 buf (Xid.to_int window);
      W.u16 buf (List.length rects);
      List.iter (write_rect buf) rects

(* Arena mirrors of the Buffer writers above: the hot path.  The Buffer
   versions remain as the executable spec (module [Spec] below); qcheck
   asserts byte-identity between the two. *)

let write_rect_a a (r : Geom.rect) =
  A.i32 a r.x;
  A.i32 a r.y;
  A.u32 a r.w;
  A.u32 a r.h

let write_payload_a a = function
  | Create_window { wid; parent; geom; border; override_redirect } ->
      A.u32 a (Xid.to_int wid);
      A.u32 a (Xid.to_int parent);
      write_rect_a a geom;
      A.u16 a border;
      A.u8 a (if override_redirect then 1 else 0)
  | Destroy_window w | Map_window w | Unmap_window w | Grab_pointer w
  | Set_input_focus w | Add_to_save_set w | Remove_from_save_set w ->
      A.u32 a (Xid.to_int w)
  | Ungrab_pointer -> ()
  | Configure_window (w, changes) ->
      A.u32 a (Xid.to_int w);
      let bit i = function Some _ -> 1 lsl i | None -> 0 in
      let present =
        bit 0 changes.cx lor bit 1 changes.cy lor bit 2 changes.cw
        lor bit 3 changes.ch lor bit 4 changes.cborder lor bit 5 changes.cstack
        lor bit 6 changes.csibling
      in
      A.u16 a present;
      let field = function Some v -> A.i32 a v | None -> () in
      field changes.cx;
      field changes.cy;
      field changes.cw;
      field changes.ch;
      field changes.cborder;
      (match changes.cstack with
      | Some Event.Above -> A.u8 a 0
      | Some Event.Below -> A.u8 a 1
      | None -> ());
      (match changes.csibling with
      | Some s -> A.u32 a (Xid.to_int s)
      | None -> ())
  | Reparent_window { window; parent; pos } ->
      A.u32 a (Xid.to_int window);
      A.u32 a (Xid.to_int parent);
      A.i32 a pos.Geom.px;
      A.i32 a pos.Geom.py
  | Change_property { window; name; value } ->
      A.u32 a (Xid.to_int window);
      A.string16 a name;
      A.string16 a value
  | Delete_property { window; name } ->
      A.u32 a (Xid.to_int window);
      A.string16 a name
  | Select_input { window; masks } ->
      A.u32 a (Xid.to_int window);
      A.u16 a (encode_masks masks)
  | Warp_pointer p ->
      A.i32 a p.Geom.px;
      A.i32 a p.Geom.py
  | Shape_rectangles { window; rects } ->
      A.u32 a (Xid.to_int window);
      A.u16 a (List.length rects);
      List.iter (write_rect_a a) rects

(* Single-pass framing: reserve the 4-byte header, write the payload in
   place, then patch the length and zero-pad to the 4-byte boundary.  No
   intermediate payload buffer, no copy. *)
let encode_request_into a req =
  let start = A.length a in
  A.u8 a (opcode req);
  A.u8 a 0;
  A.u16 a 0;
  write_payload_a a req;
  let total = A.length a - start in
  let padded = (total + 3) / 4 in
  A.patch_u16 a (start + 2) padded;
  A.zero_fill_to a (start + (padded * 4))

(* Domain-local scratch arena for the string-returning entry points, so
   they stay allocation-flat without threading an arena everywhere.
   Domain-local (not global) so a future domain-per-shard deployment
   needs no locking. *)
let scratch_key = Domain.DLS.new_key (fun () -> A.create 4096)

let encode_request req =
  let a = Domain.DLS.get scratch_key in
  A.reset a;
  encode_request_into a req;
  A.contents a

let read_payload s pos code =
  let xid () = Xid.of_int (R.u32 s pos) in
  match code with
  | 1 ->
      let wid = xid () in
      let parent = xid () in
      let geom = read_rect s pos in
      let border = R.u16 s pos in
      let override_redirect = R.u8 s pos = 1 in
      Create_window { wid; parent; geom; border; override_redirect }
  | 2 -> Destroy_window (xid ())
  | 3 -> Map_window (xid ())
  | 4 -> Unmap_window (xid ())
  | 5 ->
      let w = xid () in
      let present = R.u16 s pos in
      let field i = if present land (1 lsl i) <> 0 then Some (R.i32 s pos) else None in
      let cx = field 0 in
      let cy = field 1 in
      let cw = field 2 in
      let ch = field 3 in
      let cborder = field 4 in
      let cstack =
        if present land (1 lsl 5) <> 0 then
          Some (if R.u8 s pos = 0 then Event.Above else Event.Below)
        else None
      in
      let csibling =
        if present land (1 lsl 6) <> 0 then Some (Xid.of_int (R.u32 s pos)) else None
      in
      Configure_window (w, { Event.cx; cy; cw; ch; cborder; cstack; csibling })
  | 6 ->
      let window = xid () in
      let parent = xid () in
      let px = R.i32 s pos in
      let py = R.i32 s pos in
      Reparent_window { window; parent; pos = Geom.point px py }
  | 7 ->
      let window = xid () in
      let name = R.string16 s pos in
      let value = R.string16 s pos in
      Change_property { window; name; value }
  | 8 ->
      let window = xid () in
      let name = R.string16 s pos in
      Delete_property { window; name }
  | 9 ->
      let window = xid () in
      let masks = decode_masks (R.u16 s pos) in
      Select_input { window; masks }
  | 10 -> Grab_pointer (xid ())
  | 11 -> Ungrab_pointer
  | 12 ->
      let px = R.i32 s pos in
      let py = R.i32 s pos in
      Warp_pointer (Geom.point px py)
  | 13 -> Set_input_focus (xid ())
  | 14 ->
      let window = xid () in
      let n = R.u16 s pos in
      let rects = List.init n (fun _ -> read_rect s pos) in
      Shape_rectangles { window; rects }
  | 15 -> Add_to_save_set (xid ())
  | 16 -> Remove_from_save_set (xid ())
  | other -> failwith (Printf.sprintf "unknown opcode %d" other)

(* Cursor-style decode: the caller owns the position cell, so a consumer
   draining a stream (Wire_conn) reuses one cursor for every frame
   instead of allocating a fresh ref per frame.  On [Ok] the cursor sits
   at the start of the next frame; on [Error] its value is meaningless. *)
let decode_request_cursor s cursor =
  let pos = !cursor in
  try
    let code = R.u8 s cursor in
    let _pad = R.u8 s cursor in
    let units = R.u16 s cursor in
    if units = 0 then Error "zero-length frame"
    else begin
      let frame_end = pos + (units * 4) in
      if frame_end > String.length s then Error "truncated frame"
      else begin
        let req = read_payload s cursor code in
        cursor := frame_end;
        Ok req
      end
    end
  with
  | R.Short -> Error "short read"
  | Failure msg -> Error msg

let decode_request s ~pos =
  let cursor = ref pos in
  match decode_request_cursor s cursor with
  | Ok req -> Ok (req, !cursor)
  | Error _ as e -> e

let decode_requests s =
  let rec loop acc pos =
    if pos >= String.length s then Ok (List.rev acc)
    else
      match decode_request s ~pos with
      | Ok (req, next) -> loop (req :: acc) next
      | Error _ as e -> e
  in
  loop [] 0

(* -------- events: fixed 32-byte frames -------- *)

let event_frame code fill =
  let buf = Buffer.create 32 in
  W.u8 buf code;
  fill buf;
  let s = Buffer.contents buf in
  if String.length s > 32 then String.sub s 0 32
  else s ^ String.make (32 - String.length s) '\000'

(* Strings inside events are truncated to a fixed field, as in real X
   (events carry atoms, not strings; the simulator carries short names). *)
let fixed_string buf n s =
  let s = if String.length s > n - 1 then String.sub s 0 (n - 1) else s in
  Buffer.add_string buf s;
  for _ = String.length s to n - 1 do
    W.u8 buf 0
  done

(* Scan for the terminating NUL in place; one [String.sub] for the
   result, no intermediate copy of the raw field. *)
let read_fixed_string s pos n =
  let start = !pos in
  let limit = start + n in
  if limit > String.length s then invalid_arg "read_fixed_string";
  let rec scan i = if i >= limit || s.[i] = '\000' then i else scan (i + 1) in
  let stop = scan start in
  pos := limit;
  String.sub s start (stop - start)

(* Top-level (not a per-call closure) so encoding an event allocates
   nothing beyond the arena it writes into. *)
let a_xid a id = A.u32 a (Xid.to_int id)

(* Position-addressed writers for pre-[ensure]d, pre-zeroed fixed frames:
   no per-field bounds check, no cursor update.  Field offsets below are
   pinned byte-for-byte against [Spec.encode_event] by the hotpath qcheck
   suite. *)
let raw_u8 b p v = Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff))

let raw_u16 b p v =
  Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let raw_u32 b p v =
  Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let raw_i32 b p v = raw_u32 b p (v land 0xffffffff)
let raw_xid b p id = raw_u32 b p (Xid.to_int id)

let raw_point b p (pt : Geom.point) =
  raw_i32 b p pt.px;
  raw_i32 b (p + 4) pt.py

let raw_rect b p (r : Geom.rect) =
  raw_i32 b p r.x;
  raw_i32 b (p + 4) r.y;
  raw_u32 b (p + 8) r.w;
  raw_u32 b (p + 12) r.h

let raw_mods b p (m : Keysym.modifiers) =
  raw_u8 b p
    ((if m.shift then 1 else 0)
    lor (if m.control then 2 else 0)
    lor if m.meta then 4 else 0)

(* Into a pre-zeroed [n]-byte field: blit at most [n - 1] bytes, the
   terminating NUL(s) are already in place. *)
let raw_fixed_string b p n s =
  Bytes.blit_string s 0 b p (min (String.length s) (n - 1))

(* Write one 32-byte event frame into the arena, byte-identical to the
   Buffer-based [Spec.encode_event].  Every kind except Configure_request
   has a fixed layout, so the frame is reserved and zeroed once and the
   fields land at precomputed offsets — one bounds check per event
   instead of one per field.  Configure_request reuses the variable-size
   request payload writer and is clamped back to the 32-byte frame
   (truncating a payload that can reach 40 bytes). *)
let encode_event_into a (event : Event.t) =
  match event with
  | Event.Configure_request { window; parent; changes } ->
      let start = A.length a in
      A.u8 a 2;
      a_xid a window;
      a_xid a parent;
      write_payload_a a (Configure_window (window, changes));
      if A.length a > start + 32 then a.A.len <- start + 32
      else A.zero_fill_to a (start + 32)
  | event ->
      let start = A.length a in
      A.ensure a 32;
      let b = a.A.buf in
      Bytes.fill b start 32 '\000';
      (match event with
      | Event.Configure_request _ -> () (* handled above *)
      | Event.Map_request { window; parent } ->
          raw_u8 b start 1;
          raw_xid b (start + 1) window;
          raw_xid b (start + 5) parent
      | Event.Map_notify { window } ->
          raw_u8 b start 3;
          raw_xid b (start + 1) window
      | Event.Unmap_notify { window } ->
          raw_u8 b start 4;
          raw_xid b (start + 1) window
      | Event.Destroy_notify { window } ->
          raw_u8 b start 5;
          raw_xid b (start + 1) window
      | Event.Reparent_notify { window; parent; pos } ->
          raw_u8 b start 6;
          raw_xid b (start + 1) window;
          raw_xid b (start + 5) parent;
          raw_point b (start + 9) pos
      | Event.Configure_notify { window; geom; border; synthetic } ->
          raw_u8 b start 7;
          raw_xid b (start + 1) window;
          raw_rect b (start + 5) geom;
          raw_u16 b (start + 21) border;
          raw_u8 b (start + 23) (if synthetic then 1 else 0)
      | Event.Property_notify { window; name; deleted } ->
          raw_u8 b start 8;
          raw_xid b (start + 1) window;
          raw_u8 b (start + 5) (if deleted then 1 else 0);
          raw_fixed_string b (start + 6) 23 name
      | Event.Button_press { window; button; mods = m; pos; root_pos } ->
          raw_u8 b start 9;
          raw_xid b (start + 1) window;
          raw_u8 b (start + 5) button;
          raw_mods b (start + 6) m;
          raw_point b (start + 7) pos;
          raw_point b (start + 15) root_pos
      | Event.Button_release { window; button; mods = m; pos; root_pos } ->
          raw_u8 b start 10;
          raw_xid b (start + 1) window;
          raw_u8 b (start + 5) button;
          raw_mods b (start + 6) m;
          raw_point b (start + 7) pos;
          raw_point b (start + 15) root_pos
      | Event.Key_press { window; keysym; mods = m; pos; root_pos } ->
          raw_u8 b start 11;
          raw_xid b (start + 1) window;
          raw_mods b (start + 5) m;
          raw_point b (start + 6) pos;
          raw_point b (start + 14) root_pos;
          raw_fixed_string b (start + 22) 6 keysym
      | Event.Motion_notify { window; pos; root_pos } ->
          raw_u8 b start 12;
          raw_xid b (start + 1) window;
          raw_point b (start + 5) pos;
          raw_point b (start + 13) root_pos
      | Event.Enter_notify { window } ->
          raw_u8 b start 13;
          raw_xid b (start + 1) window
      | Event.Leave_notify { window } ->
          raw_u8 b start 14;
          raw_xid b (start + 1) window
      | Event.Focus_in { window } ->
          raw_u8 b start 17;
          raw_xid b (start + 1) window
      | Event.Focus_out { window } ->
          raw_u8 b start 18;
          raw_xid b (start + 1) window
      | Event.Expose { window; damage } -> (
          raw_u8 b start 15;
          raw_xid b (start + 1) window;
          match damage with
          | None -> ()
          | Some r ->
              raw_u8 b (start + 5) 1;
              raw_rect b (start + 6) r)
      | Event.Client_message { window; name; data } ->
          raw_u8 b start 16;
          raw_xid b (start + 1) window;
          raw_fixed_string b (start + 5) 13 name;
          raw_fixed_string b (start + 18) 14 data);
      a.A.len <- start + 32

let encode_event event =
  let a = Domain.DLS.get scratch_key in
  A.reset a;
  encode_event_into a event;
  A.contents a

(* Field readers at top level so decoding an event allocates only the
   decoded value itself, not a closure set per frame. *)
let r_xid s cursor = Xid.of_int (R.u32 s cursor)

let r_point s cursor =
  let x = R.i32 s cursor in
  let y = R.i32 s cursor in
  Geom.point x y

let r_mods s cursor =
  let bits = R.u8 s cursor in
  Keysym.mods ~shift:(bits land 1 <> 0) ~control:(bits land 2 <> 0)
    ~meta:(bits land 4 <> 0) ()

(* Cursor-style decode of one fixed 32-byte event frame; on [Ok] the
   cursor sits on the next frame. *)
let decode_event_cursor s cursor =
  let pos = !cursor in
  try
    if pos + 32 > String.length s then Error "short event frame"
    else begin
      let code = R.u8 s cursor in
      let xid () = r_xid s cursor in
      let point () = r_point s cursor in
      let mods () = r_mods s cursor in
      let event =
        match code with
        | 1 ->
            let window = xid () in
            let parent = xid () in
            Event.Map_request { window; parent }
        | 2 ->
            let window = xid () in
            let parent = xid () in
            let _w = R.u32 s cursor in
            let present = R.u16 s cursor in
            let field i =
              if present land (1 lsl i) <> 0 then Some (R.i32 s cursor) else None
            in
            let cx = field 0 in
            let cy = field 1 in
            let cw = field 2 in
            let ch = field 3 in
            let cborder = field 4 in
            let cstack =
              if present land (1 lsl 5) <> 0 then
                Some (if R.u8 s cursor = 0 then Event.Above else Event.Below)
              else None
            in
            let csibling =
              if present land (1 lsl 6) <> 0 then Some (Xid.of_int (R.u32 s cursor))
              else None
            in
            Event.Configure_request
              { window; parent;
                changes = { Event.cx; cy; cw; ch; cborder; cstack; csibling } }
        | 3 -> Event.Map_notify { window = xid () }
        | 4 -> Event.Unmap_notify { window = xid () }
        | 5 -> Event.Destroy_notify { window = xid () }
        | 6 ->
            let window = xid () in
            let parent = xid () in
            let pos = point () in
            Event.Reparent_notify { window; parent; pos }
        | 7 ->
            let window = xid () in
            let geom = read_rect s cursor in
            let border = R.u16 s cursor in
            let synthetic = R.u8 s cursor = 1 in
            Event.Configure_notify { window; geom; border; synthetic }
        | 8 ->
            let window = xid () in
            let deleted = R.u8 s cursor = 1 in
            let name = read_fixed_string s cursor 23 in
            Event.Property_notify { window; name; deleted }
        | 9 ->
            let window = xid () in
            let button = R.u8 s cursor in
            let m = mods () in
            let pos = point () in
            let root_pos = point () in
            Event.Button_press { window; button; mods = m; pos; root_pos }
        | 10 ->
            let window = xid () in
            let button = R.u8 s cursor in
            let m = mods () in
            let pos = point () in
            let root_pos = point () in
            Event.Button_release { window; button; mods = m; pos; root_pos }
        | 11 ->
            let window = xid () in
            let m = mods () in
            let pos = point () in
            let root_pos = point () in
            let keysym = read_fixed_string s cursor 6 in
            Event.Key_press { window; keysym; mods = m; pos; root_pos }
        | 12 ->
            let window = xid () in
            let pos = point () in
            let root_pos = point () in
            Event.Motion_notify { window; pos; root_pos }
        | 13 -> Event.Enter_notify { window = xid () }
        | 14 -> Event.Leave_notify { window = xid () }
        | 17 -> Event.Focus_in { window = xid () }
        | 18 -> Event.Focus_out { window = xid () }
        | 15 ->
            let window = xid () in
            let damage =
              if R.u8 s cursor = 1 then Some (read_rect s cursor) else None
            in
            Event.Expose { window; damage }
        | 16 ->
            let window = xid () in
            let name = read_fixed_string s cursor 13 in
            let data = read_fixed_string s cursor 14 in
            Event.Client_message { window; name; data }
        | other -> failwith (Printf.sprintf "unknown event code %d" other)
      in
      cursor := pos + 32;
      Ok event
    end
  with
  | R.Short -> Error "short read"
  | Failure msg -> Error msg
  | Invalid_argument _ -> Error "short event frame"

let decode_event s ~pos =
  let cursor = ref pos in
  match decode_event_cursor s cursor with
  | Ok event -> Ok (event, !cursor)
  | Error _ as e -> e

(* -------- batched event frames -------- *)

(* A batch is a length-prefixed frame holding N fixed-size event frames:
     u8 0xEB | u8 0 | u16 count | u32 payload bytes | count * 32-byte events
   The prefix lets a reader skip a whole batch without decoding it, and the
   canonical event encoding makes decode_batch/encode_batch inverse down to
   the byte level, so recorded batches stay byte-replayable. *)

let batch_code = 0xeb

(* Single-pass batch framing: reserve the 8-byte header, append each
   32-byte event frame directly into the arena, patch count and payload
   size.  No per-event intermediate strings, no payload buffer. *)
let encode_batch_into a events =
  let start = A.length a in
  A.u8 a batch_code;
  A.u8 a 0;
  A.u16 a 0;
  A.u32 a 0;
  List.iter (encode_event_into a) events;
  let payload = A.length a - start - 8 in
  A.patch_u16 a (start + 2) (payload / 32);
  A.patch_u32 a (start + 4) payload

let encode_batch events =
  let a = Domain.DLS.get scratch_key in
  A.reset a;
  encode_batch_into a events;
  A.contents a

let decode_batch s ~pos =
  try
    let cursor = ref pos in
    let code = R.u8 s cursor in
    if code <> batch_code then
      Error (Printf.sprintf "not a batch frame (code %d)" code)
    else begin
      let _pad = R.u8 s cursor in
      let count = R.u16 s cursor in
      let bytes = R.u32 s cursor in
      if bytes <> count * 32 then Error "batch length mismatch"
      else if !cursor + bytes > String.length s then Error "truncated batch"
      else begin
        let rec read acc n p =
          if n = 0 then Ok (List.rev acc)
          else
            match decode_event s ~pos:p with
            | Ok (event, next) -> read (event :: acc) (n - 1) next
            | Error _ as e -> e
        in
        match read [] count !cursor with
        | Ok events -> Ok (events, !cursor + bytes)
        | Error _ as e -> e
      end
    end
  with R.Short -> Error "short read"

(* -------- event compression -------- *)

(* The same compression the server queues apply at enqueue time, as a pure
   function over an event list (for compressing a batch before it goes on
   the wire).  Only the newest kept event is a merge candidate, so ordering
   across event types is preserved. *)
let compress_events events =
  let merge kept event =
    match (event, kept) with
    | ( Event.Motion_notify { window; _ },
        Event.Motion_notify { window = prev; _ } )
      when Xid.equal window prev -> Some event
    | ( Event.Configure_notify { window; synthetic; _ },
        Event.Configure_notify { window = prev; synthetic = sprev; _ } )
      when Xid.equal window prev && synthetic = sprev -> Some event
    | ( Event.Expose { window; damage },
        Event.Expose { window = prev; damage = dprev } )
      when Xid.equal window prev -> (
        match (dprev, damage) with
        | None, _ | _, None -> Some (Event.Expose { window; damage = None })
        | Some a, Some b ->
            let union = Region.union (Region.of_rect a) (Region.of_rect b) in
            (* Keep the single-rect representation when the union stays a
               rectangle; otherwise fall back to separate events. *)
            (match Region.rects union with
            | [ r ] -> Some (Event.Expose { window; damage = Some r })
            | _ -> None))
    | _ -> None
  in
  let rec fold acc = function
    | [] -> List.rev acc
    | event :: rest -> (
        match acc with
        | kept :: acc_rest -> (
            match merge kept event with
            | Some merged -> fold (merged :: acc_rest) rest
            | None -> fold (event :: acc) rest)
        | [] -> fold [ event ] rest)
  in
  fold [] events

(* -------- executable spec --------

   The seed Buffer-based encoders, kept verbatim as the reference
   implementation.  The arena encoders above are required (and
   qcheck-tested) to be byte-identical to these; anything byte-level —
   journal hex, repro corpus, batch replayability — is defined by this
   module. *)

module Spec = struct
  let encode_request req =
    let payload = Buffer.create 32 in
    write_payload payload req;
    let frame = Buffer.create (Buffer.length payload + 4) in
    W.u8 frame (opcode req);
    W.u8 frame 0;
    let total = 4 + Buffer.length payload in
    let padded = (total + 3) / 4 in
    W.u16 frame padded;
    Buffer.add_buffer frame payload;
    W.pad4 frame;
    Buffer.contents frame

  let encode_event (event : Event.t) =
    let xid buf id = W.u32 buf (Xid.to_int id) in
    let point buf (p : Geom.point) =
      W.i32 buf p.px;
      W.i32 buf p.py
    in
    let mods buf (m : Keysym.modifiers) =
      W.u8 buf
        ((if m.shift then 1 else 0)
        lor (if m.control then 2 else 0)
        lor if m.meta then 4 else 0)
    in
    match event with
    | Event.Map_request { window; parent } ->
        event_frame 1 (fun b ->
            xid b window;
            xid b parent)
    | Event.Configure_request { window; parent; changes } ->
        event_frame 2 (fun b ->
            xid b window;
            xid b parent;
            write_payload b (Configure_window (window, changes)))
    | Event.Map_notify { window } -> event_frame 3 (fun b -> xid b window)
    | Event.Unmap_notify { window } -> event_frame 4 (fun b -> xid b window)
    | Event.Destroy_notify { window } -> event_frame 5 (fun b -> xid b window)
    | Event.Reparent_notify { window; parent; pos } ->
        event_frame 6 (fun b ->
            xid b window;
            xid b parent;
            point b pos)
    | Event.Configure_notify { window; geom; border; synthetic } ->
        event_frame 7 (fun b ->
            xid b window;
            write_rect b geom;
            W.u16 b border;
            W.u8 b (if synthetic then 1 else 0))
    | Event.Property_notify { window; name; deleted } ->
        event_frame 8 (fun b ->
            xid b window;
            W.u8 b (if deleted then 1 else 0);
            fixed_string b 23 name)
    | Event.Button_press { window; button; mods = m; pos; root_pos } ->
        event_frame 9 (fun b ->
            xid b window;
            W.u8 b button;
            mods b m;
            point b pos;
            point b root_pos)
    | Event.Button_release { window; button; mods = m; pos; root_pos } ->
        event_frame 10 (fun b ->
            xid b window;
            W.u8 b button;
            mods b m;
            point b pos;
            point b root_pos)
    | Event.Key_press { window; keysym; mods = m; pos; root_pos } ->
        event_frame 11 (fun b ->
            xid b window;
            mods b m;
            point b pos;
            point b root_pos;
            fixed_string b 6 keysym)
    | Event.Motion_notify { window; pos; root_pos } ->
        event_frame 12 (fun b ->
            xid b window;
            point b pos;
            point b root_pos)
    | Event.Enter_notify { window } -> event_frame 13 (fun b -> xid b window)
    | Event.Leave_notify { window } -> event_frame 14 (fun b -> xid b window)
    | Event.Focus_in { window } -> event_frame 17 (fun b -> xid b window)
    | Event.Focus_out { window } -> event_frame 18 (fun b -> xid b window)
    | Event.Expose { window; damage } ->
        event_frame 15 (fun b ->
            xid b window;
            match damage with
            | None -> W.u8 b 0
            | Some r ->
                W.u8 b 1;
                write_rect b r)
    | Event.Client_message { window; name; data } ->
        event_frame 16 (fun b ->
            xid b window;
            fixed_string b 13 name;
            fixed_string b 14 data)

  let encode_batch events =
    let payload = Buffer.create (32 * List.length events) in
    List.iter (fun event -> Buffer.add_string payload (encode_event event)) events;
    let frame = Buffer.create (Buffer.length payload + 8) in
    W.u8 frame batch_code;
    W.u8 frame 0;
    W.u16 frame (List.length events);
    W.u32 frame (Buffer.length payload);
    Buffer.add_buffer frame payload;
    Buffer.contents frame
end

(* -------- hex framing --------

   The replay journal stores wire frames as lowercase hex so they survive
   a trip through JSON (and human eyes) unharmed. *)

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let buf = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.to_string buf)
      else
        match (nibble s.[i], nibble s.[i + 1]) with
        | Some hi, Some lo ->
            Bytes.set buf (i / 2) (Char.chr ((hi lsl 4) lor lo));
            go (i + 2)
        | _ -> Error (Printf.sprintf "bad hex byte at %d" i)
    in
    go 0
