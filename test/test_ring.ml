(* Direct unit tests for the ring buffer's logical-index operations —
   [get], [set] and [remove] — including wrap-around layouts (head past the
   physical middle) and removal at the head and tail.  The shed policy in
   {!Server} folds and removes entries anywhere in the queue through these,
   so they must stay honest under every layout the queue can reach.

   The bounded mode backs every observability log, so it is checked
   against a list model: it keeps exactly the newest [n] pushes. *)

module Ring = Swm_xlib.Ring

let check = Alcotest.check

(* A ring whose head has walked: capacity 4, push 4, pop 2, push 2 — the
   live run [3;4;5;6] straddles the physical end of the buffer. *)
let wrapped () =
  let r = Ring.create ~capacity:4 () in
  for i = 1 to 4 do
    Ring.push r i
  done;
  ignore (Ring.pop r);
  ignore (Ring.pop r);
  Ring.push r 5;
  Ring.push r 6;
  r

let drain r =
  let rec go acc =
    match Ring.pop r with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

let test_get_basics () =
  let r = Ring.create ~capacity:4 () in
  check Alcotest.(option int) "get on empty" None (Ring.get r 0);
  for i = 1 to 5 do
    Ring.push r (i * 10)
  done;
  check Alcotest.(option int) "index 0 is the front" (Some 10) (Ring.get r 0);
  check Alcotest.(option int) "index 2 mid" (Some 30) (Ring.get r 2);
  check Alcotest.(option int) "index 4 is the back" (Some 50) (Ring.get r 4);
  check Alcotest.(option int) "past the end" None (Ring.get r 5);
  check Alcotest.(option int) "negative index" None (Ring.get r (-1))

let test_get_wrapped () =
  let r = wrapped () in
  check Alcotest.int "length" 4 (Ring.length r);
  List.iteri
    (fun i expect ->
      check Alcotest.(option int)
        (Printf.sprintf "wrapped get %d" i)
        (Some expect) (Ring.get r i))
    [ 3; 4; 5; 6 ];
  check Alcotest.(option int) "wrapped past the end" None (Ring.get r 4)

let test_set () =
  let r = wrapped () in
  Ring.set r 0 30;
  Ring.set r 3 60;
  check Alcotest.(list int) "set at head and tail under wrap" [ 30; 4; 5; 60 ]
    (drain r);
  let r = Ring.create ~capacity:4 () in
  Ring.push r 1;
  check Alcotest.bool "set past the end raises" true
    (match Ring.set r 1 9 with
    | () -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "set negative raises" true
    (match Ring.set r (-1) 9 with
    | () -> false
    | exception Invalid_argument _ -> true);
  let empty = Ring.create ~capacity:4 () in
  check Alcotest.bool "set on empty raises" true
    (match Ring.set empty 0 9 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_remove_head_tail () =
  let r = wrapped () in
  check Alcotest.(option int) "remove at head" (Some 3) (Ring.remove r 0);
  check Alcotest.(option int) "new front intact" (Some 4) (Ring.peek r);
  check Alcotest.(option int) "remove at tail" (Some 6)
    (Ring.remove r (Ring.length r - 1));
  check Alcotest.(option int) "new back intact" (Some 5) (Ring.peek_back r);
  check Alcotest.(list int) "order preserved" [ 4; 5 ] (drain r)

let test_remove_middle_wrapped () =
  let r = wrapped () in
  check Alcotest.(option int) "remove middle under wrap" (Some 5)
    (Ring.remove r 2);
  check Alcotest.int "length shrank" 3 (Ring.length r);
  check Alcotest.(list int) "rest kept their order" [ 3; 4; 6 ] (drain r);
  check Alcotest.(option int) "remove on empty" None (Ring.remove r 0)

let test_remove_out_of_range () =
  let r = wrapped () in
  check Alcotest.(option int) "remove past the end" None (Ring.remove r 4);
  check Alcotest.(option int) "remove negative" None (Ring.remove r (-1));
  check Alcotest.int "nothing was disturbed" 4 (Ring.length r)

(* Interleave index ops with growth: the indices must survive the ring
   doubling in place while wrapped. *)
let test_index_ops_across_growth () =
  let r = wrapped () in
  for i = 7 to 12 do
    Ring.push r i
  done;
  check Alcotest.int "grew past the initial capacity" 10 (Ring.length r);
  List.iteri
    (fun i expect ->
      check Alcotest.(option int)
        (Printf.sprintf "post-growth get %d" i)
        (Some expect) (Ring.get r i))
    [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  Ring.set r 9 99;
  check Alcotest.(option int) "remove mid after growth" (Some 7) (Ring.remove r 4);
  check Alcotest.(list int) "final order" [ 3; 4; 5; 6; 8; 9; 10; 11; 99 ]
    (drain r)

(* Retain over a wrapped layout: each element is offered once, front to
   back, the kept ones close up in order, and the ring stays usable. *)
let test_retain_wrapped () =
  let r = wrapped () in
  let seen = ref [] in
  Ring.retain
    (fun x ->
      seen := x :: !seen;
      x mod 2 = 0)
    r;
  check Alcotest.(list int) "offered once each, front to back" [ 3; 4; 5; 6 ]
    (List.rev !seen);
  check Alcotest.(list int) "kept in order" [ 4; 6 ] (Ring.to_list r);
  Ring.push r 7;
  Ring.retain (fun _ -> true) r;
  check Alcotest.(list int) "keeping all changes nothing" [ 4; 6; 7 ] (Ring.to_list r);
  Ring.retain (fun _ -> false) r;
  check Alcotest.int "emptied" 0 (Ring.length r);
  Ring.push r 8;
  check Alcotest.(list int) "reusable after emptying" [ 8 ] (drain r)

(* -------- bounded mode -------- *)

type op = Push of int | Clear

let rec last n l = if List.length l <= n then l else last n (List.tl l)

(* Replay [ops] on a bounded ring and on a list of every push since the
   last clear, checking after each op that the ring holds the model's last
   [n] elements oldest first (through [to_list] and [iter]), that it
   evicted exactly the rest, and that its slot array never changed size. *)
let bounded_matches_model (n, ops) =
  let r = Ring.bounded n in
  let model = ref [] in
  List.for_all
    (fun op ->
      (match op with
      | Push x ->
          Ring.push r x;
          model := !model @ [ x ]
      | Clear ->
          Ring.clear r;
          model := []);
      let kept = last n !model in
      let walked = ref [] in
      Ring.iter (fun x -> walked := x :: !walked) r;
      Ring.to_list r = kept
      && List.rev !walked = kept
      && Ring.length r = List.length kept
      && Ring.evicted r = List.length !model - List.length kept
      && Ring.capacity r = n
      && Ring.peek r = List.nth_opt kept 0
      && Ring.peek_back r = List.nth_opt (List.rev kept) 0)
    ops

let prop_bounded_keeps_last_n =
  QCheck2.Test.make ~name:"bounded ring keeps the last n pushes" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 12)
        (list_size (int_range 0 60)
           (frequency [ (12, map (fun x -> Push x) nat); (1, pure Clear) ])))
    bounded_matches_model

(* The same seven pushes into three slots: the bounded ring drops the
   oldest, the growable one grows. *)
let test_bounded_vs_growable () =
  let b = Ring.bounded 3 and g = Ring.create ~capacity:3 () in
  for i = 1 to 7 do
    Ring.push b i;
    Ring.push g i
  done;
  check Alcotest.(list int) "bounded keeps the newest three" [ 5; 6; 7 ]
    (Ring.to_list b);
  check Alcotest.(pair int int) "bounded: evicted, capacity" (4, 3)
    (Ring.evicted b, Ring.capacity b);
  check Alcotest.int "bounded high water is the bound" 3 (Ring.high_water b);
  check Alcotest.(list int) "growable keeps all" [ 1; 2; 3; 4; 5; 6; 7 ]
    (Ring.to_list g);
  check Alcotest.bool "growable evicts nothing and grows" true
    (Ring.evicted g = 0 && Ring.capacity g > 3)

let suite =
  [
    Alcotest.test_case "get: logical indexing" `Quick test_get_basics;
    Alcotest.test_case "get: wrapped layout" `Quick test_get_wrapped;
    Alcotest.test_case "set: in range and raising" `Quick test_set;
    Alcotest.test_case "remove: at head and tail" `Quick test_remove_head_tail;
    Alcotest.test_case "remove: middle under wrap" `Quick
      test_remove_middle_wrapped;
    Alcotest.test_case "remove: out of range is None" `Quick
      test_remove_out_of_range;
    Alcotest.test_case "index ops survive growth" `Quick
      test_index_ops_across_growth;
    Alcotest.test_case "retain: filter in place under wrap" `Quick
      test_retain_wrapped;
    Alcotest.test_case "bounded drops, growable grows" `Quick
      test_bounded_vs_growable;
    QCheck_alcotest.to_alcotest prop_bounded_keeps_last_n;
  ]
