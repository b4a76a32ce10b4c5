(** Binary wire encoding of requests and events.

    The real X11 protocol is a byte stream: fixed 4-byte-aligned request
    frames with an opcode, length and payload, and 32-byte event frames.
    The in-process simulator doesn't need a socket, but the wire layer is
    still implemented — X-style framing, little-endian, length-prefixed —
    for three reasons: the replay journal records sessions as frames that
    replay byte-identically ({!Replay}); the encoding overhead a real WM
    pays per request can be measured; and round-trip property tests pin
    down the request/event vocabulary precisely.  Decoded requests reach
    the server only through {!Wire_conn}.

    Requests are encoded as [opcode(1) pad(1) length(2) payload...] with
    the length in 4-byte units including the header, exactly like X.
    Events are fixed 32-byte frames beginning with their code. *)

(** The request vocabulary (the subset of X this server implements). *)
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

val pp_request : Format.formatter -> request -> unit

val opcode : request -> int
(** The wire opcode (1..16) — also the key of the per-opcode request
    counters in {!Server.metrics}. *)

(** {1 Encode arena}

    The hot-path encoders write into a reusable growable [Bytes] arena
    with an explicit cursor — no per-frame [Buffer], no payload-then-
    frame copy.  A caller owning an arena ({!Wire_conn} keeps one per
    connection) encodes whole batches with a single allocation: the
    final [contents] string.  Reuse is safe because a frame is fully
    materialized before the arena is reset for the next one. *)

module A : sig
  type t

  val create : int -> t
  (** A fresh arena with at least [n] bytes of capacity. *)

  val reset : t -> unit
  val length : t -> int

  val contents : t -> string
  (** Copy of the bytes written so far — the only allocation on the
      encode path. *)
end

val encode_request : request -> string
(** X-framed bytes: 4-byte-aligned, length-prefixed.  Encodes through a
    domain-local scratch arena; allocates only the returned string. *)

val encode_request_into : A.t -> request -> unit
(** Append one framed request to the arena (single pass: header
    reserved, payload written in place, length patched). *)

val decode_request : string -> pos:int -> (request * int, string) result
(** Decode one request starting at [pos]; returns it and the next
    position. *)

val decode_request_cursor : string -> int ref -> (request, string) result
(** Cursor-style variant: the caller owns the position cell and reuses
    it across frames.  On [Ok] the cursor sits at the next frame; on
    [Error] its value is meaningless. *)

val decode_requests : string -> (request list, string) result

val encode_event : Event.t -> string
(** A fixed 32-byte frame (strings that don't fit are truncated, as X
    events cannot carry arbitrary property data either). *)

val encode_event_into : A.t -> Event.t -> unit
(** Append one 32-byte event frame to the arena. *)

val decode_event : string -> pos:int -> (Event.t * int, string) result

val decode_event_cursor : string -> int ref -> (Event.t, string) result

(** {1 Batched event frames}

    A batch frame carries N events under one length-prefixed header —
    [u8 0xEB | u8 0 | u16 count | u32 payload-bytes | count * 32-byte
    events] — so a connection flush costs one frame instead of N, and a
    reader can skip a batch without decoding it.  The canonical event
    encoding makes the pair inverse down to the byte level:
    [encode_batch (fst (decode_batch bytes)) = bytes]. *)

val encode_batch : Event.t list -> string
val encode_batch_into : A.t -> Event.t list -> unit
val decode_batch : string -> pos:int -> (Event.t list * int, string) result

(** {1 Compression}

    The same X-style compression the server queues apply at enqueue time,
    as a pure function for the wire layer: only the newest kept element is
    a merge candidate, so ordering across kinds is preserved. *)

val compress_events : Event.t list -> Event.t list
(** Collapse consecutive MotionNotify on one window to the latest,
    fold redundant ConfigureNotify runs to the final geometry, and merge
    consecutive Expose damage on one window when the union remains a
    rectangle. *)

(** {1 Reference encoders}

    The seed Buffer-based encoders, kept as the executable spec of the
    byte format.  The arena-based hot-path encoders above are
    property-tested byte-identical to these; journal hex and the repro
    corpus are defined by this encoding. *)

module Spec : sig
  val encode_request : request -> string
  val encode_event : Event.t -> string
  val encode_batch : Event.t list -> string
end

(** {1 Hex framing} *)

val to_hex : string -> string
(** Lowercase hex of a byte string — how the replay journal carries wire
    frames through JSON. *)

val of_hex : string -> (string, string) result
