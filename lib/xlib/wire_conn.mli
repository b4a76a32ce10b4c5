(** A connection that speaks only the {!Wire} byte protocol.

    Real X clients allocate their own resource ids and talk to the server
    through a socket.  [Wire_conn] reproduces that contract on top of the
    in-process server: the client submits encoded request bytes (choosing
    its own window ids, as X clients do) and drains encoded event batches;
    the connection translates between the client's id space and the
    server's, in both directions.

    This is the substrate fidelity check: everything a client can do
    in-process it can also do through bytes alone (see the wire tests), and
    the byte counts measure real protocol traffic. *)

type t

val create : Server.t -> name:string -> t
val conn : t -> Server.conn
(** The underlying connection (for tests that need to peek). *)

val fresh_id : t -> Xid.t
(** Allocate a client-side id for a CreateWindow request. *)

val alias : t -> client:Xid.t -> server:Xid.t -> unit
(** Pre-register an id translation.  {!Replay} re-injects journalled
    frames whose ids come from the *recorded* session: creates register
    their own mapping as they execute, but ids that predate the journal
    (the screen roots) must be seeded by hand. *)

val root_id : t -> screen:int -> Xid.t
(** The client-visible id of a screen's root (pre-mapped, like the root ids
    an X connection learns from the setup handshake). *)

val submit : t -> Wire.request -> (unit, string) result
(** Convenience: encode then {!submit_bytes}, reporting only the error
    message. *)

type submit_error = {
  executed : int;
      (** requests that ran before the failure — a batch is not
          transactional, so partial effects are already visible *)
  error : string;  (** first decode or execution error *)
}

val submit_bytes : t -> string -> (int, submit_error) result
(** Decode and execute every request in the byte string; ids are translated
    from the client's space.  Returns the number executed, or the first
    error together with how many requests preceded it.  Every failed
    submission also bumps the [wire.rejected_frames] counter in
    {!Server.metrics}.  If the server has an armed {!Fault} plan, the byte
    string may first be truncated or corrupted (frame fault site). *)

val flush_batch_bytes : t -> string
(** Drain every pending event, translate its window ids back into the
    client's id space (unknown server windows pass through), run
    {!Wire.compress_events} over them, and return one length-prefixed
    {!Wire.encode_batch} frame ([""] when nothing is queued). *)

val bytes_sent : t -> int
val bytes_received : t -> int
(** Cumulative wire traffic through this connection. *)

val resolve : t -> Xid.t -> Xid.t option
(** The server id behind a client id, if any (for tests). *)
