(* Host calibration.

   The hosts this benchmark runs on are shared, and other tenants' cache
   traffic slows cache-bound code by half again or more for minutes at a
   time: more than any run can average out.  [kernel] is a fixed piece of
   work in the WM's style, built from the standard library alone so that no
   change to the program changes it: a table of records with child lists
   rebuilt again and again, looked up through int- and string-keyed hash
   tables, with short-lived allocation and formatting.  It slows down with
   the WM (within a few percent over a three-minute host slow-down of 1.7x,
   on the host this was written on), so timings multiplied by
   [reference_ns / kernel time] read as they would on a quiet host. *)

type node = { id : int; mutable children : node list; mutable x : int }

let kernel () =
  let nodes = Hashtbl.create 1024 and names = Hashtbl.create 64 in
  let next = ref 0 in
  let make parent =
    incr next;
    let n = { id = !next; children = []; x = 0 } in
    Hashtbl.replace nodes n.id n;
    (match parent with Some p -> p.children <- n :: p.children | None -> ());
    n
  in
  let key i = Printf.sprintf "swm.color.screen0.c%d.i%d.decoration" (i mod 6) i in
  let root = make None in
  for i = 1 to 60 do
    let frame = make (Some root) in
    for _ = 1 to 10 do
      ignore (make (Some frame))
    done;
    Hashtbl.replace names (key i) frame.id
  done;
  let acc = ref 0 in
  for round = 1 to 150 do
    List.iter
      (fun frame ->
        let kids = frame.children in
        List.iter (fun k -> Hashtbl.remove nodes k.id) kids;
        frame.children <- [];
        List.iter (fun _ -> ignore (make (Some frame))) kids;
        frame.x <- frame.x + round)
      root.children;
    for i = 1 to 60 do
      match Option.bind (Hashtbl.find_opt names (key i)) (Hashtbl.find_opt nodes) with
      | Some n -> acc := !acc + n.x + List.length n.children
      | None -> ()
    done
  done;
  !acc

(* The kernel's time on a quiet host of the kind this was written on. *)
let reference_ns = 12_500_000

(* One sample: the fastest of three runs, in ns. *)
let sample () =
  List.fold_left min max_int
    (List.init 3 (fun _ ->
         let t0 = Acct.now_ns () in
         ignore (Sys.opaque_identity (kernel ()));
         Acct.now_ns () - t0))
