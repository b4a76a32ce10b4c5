type 'a t = {
  mutable buf : 'a option array;
  mutable head : int; (* index of the front element *)
  mutable len : int;
  mutable hwm : int;
  bounded : bool; (* full: evict the front instead of growing *)
  mutable evicted : int;
}

let make n bounded =
  { buf = Array.make (max 1 n) None; head = 0; len = 0; hwm = 0; bounded;
    evicted = 0 }

let create ?(capacity = 16) () = make capacity false
let bounded n = make n true

let length t = t.len
let is_empty t = t.len = 0
let high_water t = t.hwm
let capacity t = Array.length t.buf
let evicted t = t.evicted

(* Physical slot of logical index [i] (0 = front), for 0 <= i < capacity. *)
let slot t i =
  let j = t.head + i and n = Array.length t.buf in
  if j >= n then j - n else j

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (cap * 2) None in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.(slot t i)
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then
    if t.bounded then begin
      (* The front slot is about to be reused for [x]. *)
      t.head <- slot t 1;
      t.len <- t.len - 1;
      t.evicted <- t.evicted + 1
    end
    else grow t;
  t.buf.(slot t t.len) <- Some x;
  t.len <- t.len + 1;
  if t.len > t.hwm then t.hwm <- t.len

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- slot t 1;
    t.len <- t.len - 1;
    x
  end

let peek t = if t.len = 0 then None else t.buf.(t.head)
let peek_back t = if t.len = 0 then None else t.buf.(slot t (t.len - 1))

let replace_back t x =
  if t.len = 0 then invalid_arg "Ring.replace_back: empty"
  else t.buf.(slot t (t.len - 1)) <- Some x

(* Logical-index access: index 0 is the front (oldest) element.  Used by
   the overload shed policy, which scans for droppable entries at cap. *)
let get t i = if i < 0 || i >= t.len then None else t.buf.(slot t i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Ring.set: out of range"
  else t.buf.(slot t i) <- Some x

(* O(n) shift toward the head; acceptable because removal only happens at
   the queue cap, where bounding memory matters more than the shed cost. *)
let remove t i =
  if i < 0 || i >= t.len then None
  else begin
    let removed = t.buf.(slot t i) in
    for j = i downto 1 do
      t.buf.(slot t j) <- t.buf.(slot t (j - 1))
    done;
    t.buf.(t.head) <- None;
    t.head <- slot t 1;
    t.len <- t.len - 1;
    removed
  end

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0;
  t.evicted <- 0

(* Compaction in place: a kept element moves its existing cell toward the
   front, so a pass that keeps everything writes and allocates nothing. *)
let retain f t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    match t.buf.(slot t i) with
    | Some x as cell ->
        if f x then begin
          if !kept < i then t.buf.(slot t !kept) <- cell;
          incr kept
        end
    | None -> ()
  done;
  for i = !kept to t.len - 1 do
    t.buf.(slot t i) <- None
  done;
  t.len <- !kept

let iter f t =
  for i = 0 to t.len - 1 do
    match t.buf.(slot t i) with Some x -> f x | None -> ()
  done

let to_list t =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1) (match t.buf.(slot t i) with Some x -> x :: acc | None -> acc)
  in
  go (t.len - 1) []
