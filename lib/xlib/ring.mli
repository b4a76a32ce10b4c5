(** A circular buffer, growable or bounded.

    A {e growable} ring ({!create}) backs the per-connection event queues in
    {!Server}: events are enqueued at the back, delivered from the front,
    and the batched delivery path ({!Server.read_events_stamped}) drains a
    contiguous run per call instead of one element at a time.  The buffer
    doubles in place when full, so steady state allocates nothing per
    event.

    The back of the queue is also mutable ({!peek_back}, {!replace_back}),
    which is what X-style event compression needs: a new MotionNotify
    replaces the MotionNotify already sitting at the tail rather than
    enqueueing behind it.

    A {e bounded} ring ({!bounded}) keeps at most n elements: a push onto
    a full ring overwrites the oldest element and counts it in {!evicted}.
    It never reallocates after creation, so its cost does not depend on
    how long it has been running.  The tracing span ring and slow log and
    the flight recorder's activity ring and replay journal are each one.
    (The ledger's fate ring and the metrics sampler keep their own
    preallocated slots instead, written in place, so an entry allocates
    nothing.) *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** A growable ring with [capacity] initial slots (default 16). *)

val bounded : int -> 'a t
(** A ring holding at most [n] elements (at least 1). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Slots allocated: the bound of a bounded ring, which never changes;
    the current size of a growable one. *)

val push : 'a t -> 'a -> unit
(** Append at the back.  When full, a growable ring doubles; a bounded one
    drops its front element and counts it in {!evicted}. *)

val evicted : 'a t -> int
(** Elements a bounded ring has overwritten since creation or the last
    {!clear}; always 0 for a growable ring.  For a ring that is never
    popped, [length + evicted] is the number of pushes. *)

val pop : 'a t -> 'a option
(** Remove and return the front element. *)

val peek : 'a t -> 'a option
val peek_back : 'a t -> 'a option

val replace_back : 'a t -> 'a -> unit
(** Overwrite the back element; raises [Invalid_argument] when empty. *)

val get : 'a t -> int -> 'a option
(** Logical-index read: [get t 0] is the front (oldest) element; [None]
    out of range. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite the element at a logical index; raises [Invalid_argument]
    out of range.  With {!get}, lets the overload shed policy fold an
    event into an entry anywhere in the queue. *)

val remove : 'a t -> int -> 'a option
(** Remove and return the element at a logical index, preserving the order
    of the rest.  O(i) shift — meant for the rare at-cap shed path, not
    steady-state delivery. *)

val clear : 'a t -> unit
(** Empty the ring and zero {!evicted}; the slots stay allocated. *)

val high_water : 'a t -> int
(** The largest length the ring has ever reached. *)

val retain : ('a -> bool) -> 'a t -> unit
(** Keep the elements [f] accepts, in order, calling [f] once on each,
    front to back; [f] must not change the ring.  Allocates nothing.  A
    server health tick filters its active set with it, dropping the
    connections it finds at rest. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back (oldest first), without consuming. *)

val to_list : 'a t -> 'a list
(** The elements front-to-back (oldest first), without consuming. *)
