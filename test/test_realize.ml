(* Realization against its retained reference.

   [Swm_oi.Wobj.realize] creates each window at its final geometry with its
   event mask, maps each panel's children with one MapSubwindows and
   unrealizes with one DestroyWindow.  [test/reference/] keeps the
   per-window realization it replaced ([Swm_oi_reference.Wobj]) and the
   window manager built over it ([Swm_core_reference]).  Two properties
   compare them: random object trees must realize, relayout and unrealize
   to the same windows, and random window-manager sessions must send every
   client the same events on its own window. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event
module Region = Swm_xlib.Region
module Wobj = Swm_oi.Wobj
module Reference = Swm_oi_reference.Wobj
module Client_app = Swm_clients.Client_app
module Templates = Swm_core.Templates

(* -------- object trees -------- *)

type node = {
  kind : Wobj.kind;
  spec : Geom.spec;  (** its position in the parent panel *)
  image : string option;
  label : string option;  (** set before realization *)
  external_size : (int * int) option;
  shape : int;  (** 0: none, 1: shape, 2: shape with a shapeMask *)
  background : string option;
  children : node list;  (** panels and menus only *)
}

let spec_gen =
  let open QCheck2.Gen in
  let xoff =
    frequency
      [
        (4, map (fun c -> Some (Geom.From_start c)) (int_range 0 3));
        (2, map (fun c -> Some (Geom.From_end c)) (int_range 0 2));
        (2, pure (Some Geom.Centered));
        (1, pure None);
      ]
  and yoff =
    frequency
      [
        (4, map (fun r -> Some (Geom.From_start r)) (int_range 0 2));
        (1, map (fun r -> Some (Geom.From_end r)) (int_range 0 1));
        (1, pure None);
      ]
  and size lo hi = frequency [ (3, pure None); (1, map Option.some (int_range lo hi)) ] in
  map
    (fun (((xoff, yoff), width), height) -> { Geom.width; height; xoff; yoff })
    (pair (pair (pair xoff yoff) (size 4 90)) (size 4 40))

let leaf_gen =
  let open QCheck2.Gen in
  map
    (fun ((((kind, spec), image), label), (external_size, (shape, background))) ->
      { kind; spec; image; label; external_size; shape; background; children = [] })
    (pair
       (pair
          (pair (pair (oneofl [ Wobj.Button; Wobj.Button; Wobj.Text ]) spec_gen)
             (frequencyl [ (4, None); (1, Some "xlogo32"); (1, Some "noSuchImage") ]))
          (frequency
             [ (3, pure None); (1, pure (Some "=")); (1, map (fun n -> Some (String.make n 'x')) (int_range 0 12)) ]))
       (pair
          (frequency [ (5, pure None); (1, map Option.some (pair (int_range 1 60) (int_range 1 30))) ])
          (pair (frequencyl [ (5, 0); (1, 1); (1, 2) ]) (frequencyl [ (4, None); (1, Some "#") ]))))

let rec node_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then leaf_gen
  else
    frequency
      [
        (3, leaf_gen);
        ( 1,
          map
            (fun ((((kind, spec), external_size), (shape, background)), children) ->
              { kind; spec; image = None; label = None; external_size; shape; background; children })
            (pair
               (pair
                  (pair (pair (oneofl [ Wobj.Panel; Wobj.Panel; Wobj.Menu ]) spec_gen)
                     (frequency [ (5, pure None); (1, map Option.some (pair (int_range 1 90) (int_range 1 60))) ]))
                  (pair (frequencyl [ (3, 0); (1, 1); (1, 2) ]) (frequencyl [ (4, None); (1, Some "%") ])))
               (list_size (int_range 0 4) (node_gen (depth - 1)))) );
      ]

let tree_gen =
  let open QCheck2.Gen in
  map
    (fun ((kind, children), (shape, override_redirect)) ->
      ( {
          kind;
          spec = Geom.parse_exn "+0+0";
          image = None;
          label = None;
          external_size = None;
          shape;
          background = None;
          children;
        },
        override_redirect ))
    (pair
       (pair (oneofl [ Wobj.Panel; Wobj.Panel; Wobj.Menu ]) (list_size (int_range 0 5) (node_gen 2)))
       (pair (frequencyl [ (3, 0); (1, 1); (1, 2) ]) bool))

let rec show_node n =
  Printf.sprintf "%s%s%s%s%s%s[%s]" (Wobj.kind_name n.kind) (Geom.to_string n.spec)
    (match n.image with Some i -> " image=" ^ i | None -> "")
    (match n.label with Some l -> Printf.sprintf " label=%S" l | None -> "")
    (match n.external_size with Some (w, h) -> Printf.sprintf " ext=%dx%d" w h | None -> "")
    (match n.shape with 0 -> "" | 1 -> " shape" | _ -> " shapeMask")
    (String.concat "; " (List.map show_node n.children))

(* Build the tree on [tk]; names repeat across trees, as decorations' do. *)
let build tk root =
  let count = ref 0 in
  let rec make n =
    incr count;
    let name = Printf.sprintf "%s%d" (Wobj.kind_name n.kind) !count in
    let obj = Wobj.make tk n.kind ~name in
    Option.iter (Wobj.set_attr obj "image") n.image;
    Option.iter (Wobj.set_attr obj "background") n.background;
    if n.shape > 0 then Wobj.set_attr obj "shape" "True";
    if n.shape > 1 then Wobj.set_attr obj "shapeMask" "disc";
    (match n.label with
    | Some "=" -> Wobj.set_label obj (String.init (String.length name) (String.get name))
    | Some text -> Wobj.set_label obj text
    | None -> ());
    Wobj.set_external_size obj n.external_size;
    List.iter (fun c -> Wobj.add_child obj (make c) ~position:c.spec) n.children;
    obj
  in
  make root

let rec objects obj = obj :: List.concat_map objects (Wobj.children obj)

(* Everything a window shows the protocol and the renderer, every window of
   the server, by id. *)
let server_state server conns =
  let show_masks masks = String.concat "," (List.map (Format.asprintf "%a" Event.pp_mask) masks) in
  List.sort Xid.compare (Server.all_windows server)
  |> List.map (fun id ->
         let g = Server.geometry server id in
         Printf.sprintf "%d parent=%d geom=%d,%d,%dx%d border=%d children=[%s] mapped=%b %s label=%s art=%s bg=%s shape=%s"
           (Xid.to_int id)
           (Xid.to_int (Server.parent_of server id))
           g.x g.y g.w g.h (Server.border_width server id)
           (String.concat " " (List.map (fun c -> string_of_int (Xid.to_int c)) (Server.children_of server id)))
           (Server.is_mapped server id)
           (String.concat " "
              (List.map
                 (fun conn -> Server.conn_name conn ^ ":" ^ show_masks (Server.selected_masks server conn id))
                 conns))
           (Option.value (Server.label_of server id) ~default:"-")
           (match Server.art_of server id with Some rows -> String.concat "/" rows | None -> "-")
           (match Server.background_of server id with Some c -> String.make 1 c | None -> "-")
           (match Server.shape_get server id with
           | Some r ->
               String.concat " "
                 (List.map (fun (r : Geom.rect) -> Printf.sprintf "%d,%d,%dx%d" r.x r.y r.w r.h) (Region.rects r))
           | None -> "-"))

(* And what the toolkit believes of each object. *)
let toolkit_state root =
  List.map
    (fun obj ->
      let g = Wobj.geometry obj in
      Printf.sprintf "%s win=%d geom=%d,%d,%dx%d label=%S" (Wobj.name obj)
        (if Wobj.is_realized obj then Xid.to_int (Wobj.window obj) else 0)
        g.x g.y g.w g.h (Wobj.label obj))
    (objects root)

(* The first line that differs between two states. *)
let rec first_difference = function
  | x :: xs, y :: ys -> if x = y then first_difference (xs, ys) else Some (x, y)
  | x :: _, [] -> Some (x, "(missing)")
  | [], y :: _ -> Some ("(missing)", y)
  | [], [] -> None

type side = {
  realize : ?override_redirect:bool -> Wobj.t -> parent_window:Xid.t -> at:Geom.point -> unit;
  unrealize : Wobj.t -> unit;
  set_label : Wobj.t -> string -> unit;
}

let current = { realize = Wobj.realize; unrealize = Wobj.unrealize; set_label = Wobj.set_label }

let reference =
  { realize = Reference.realize; unrealize = Reference.unrealize; set_label = Reference.set_label }

type run = {
  realized : string list * string list;
  relaid : string list * string list;
  unrealized : string list * string list;
  gone : bool;  (** no window of the tree exists or is registered *)
  requests : int;  (** to realize *)
  contract : int;  (** a window each, a panel with children each, a shape each *)
  unrealize_requests : int;
}

(* Realize, retitle the first leaf (a relayout), and unrealize the tree on a
   fresh server. *)
let run side (root_node, override_redirect) =
  let server = Server.create () in
  let conn = Server.connect server ~name:"toolkit" in
  let other = Server.connect server ~name:"other" in
  let top = Server.root server ~screen:0 in
  (* Another connection's selection must survive beside the toolkit's. *)
  Server.select_input server other top [ Event.Substructure_notify ];
  let tk = Wobj.create_toolkit ~server ~conn ~screen:0 ~query:(fun ~names:_ ~classes:_ -> None) in
  let root = build tk root_node in
  let objs = objects root in
  let state () = (server_state server [ conn; other ], toolkit_state root) in
  let r0 = Server.request_count server in
  side.realize ~override_redirect root ~parent_window:top ~at:(Geom.point 7 9);
  let requests = Server.request_count server - r0 in
  let count p = List.length (List.filter p objs) in
  let contract =
    List.length objs
    + count (fun o -> Wobj.children o <> [])
    + count (fun o -> Server.is_shaped server (Wobj.window o))
  in
  let realized = state () in
  (match List.filter (fun o -> Wobj.children o = [] && o != root) objs with
  | leaf :: _ -> side.set_label leaf "a longer label than before"
  | [] -> ());
  let relaid = state () in
  let windows = List.map Wobj.window objs in
  let r1 = Server.request_count server in
  side.unrealize root;
  let unrealize_requests = Server.request_count server - r1 in
  let gone =
    List.for_all
      (fun w -> (not (Server.window_exists server w)) && Wobj.find_object tk w = None)
      windows
    && List.for_all (fun o -> not (Wobj.is_realized o)) objs
  in
  { realized; relaid; unrealized = state (); gone; requests; contract; unrealize_requests }

let prop_realize_matches_reference =
  QCheck2.Test.make ~name:"realize matches the per-window reference" ~count:300
    ~print:(fun (n, o) -> Printf.sprintf "%s override_redirect=%b" (show_node n) o)
    tree_gen
    (fun tree ->
      let r = run reference tree and c = run current tree in
      let diff what (a_server, a_tk) (b_server, b_tk) =
        match (first_difference (a_server, b_server), first_difference (a_tk, b_tk)) with
        | Some (x, y), _ | None, Some (x, y) ->
            QCheck2.Test.fail_reportf "%s:\n  current   %s\n  reference %s" what x y
        | None, None -> ()
      in
      diff "realized" c.realized r.realized;
      diff "relaid out" c.relaid r.relaid;
      diff "unrealized" c.unrealized r.unrealized;
      if not (c.gone && r.gone) then QCheck2.Test.fail_report "a window or registry entry survived";
      if c.requests <> c.contract then
        QCheck2.Test.fail_reportf "realize issued %d requests, the contract says %d" c.requests
          c.contract;
      if c.unrealize_requests <> 1 then
        QCheck2.Test.fail_reportf "unrealize issued %d requests" c.unrealize_requests;
      true)

(* -------- through the window manager -------- *)

(* Sticky clients and the [Bare] class get a decoration without a [client]
   panel, which reparents the client into the frame itself; shaped
   clients (oclock) get the template's shaped [shapeit] decoration. *)
let resources =
  [
    Templates.open_look;
    {|
swm*Bare*decoration: bare
swm*sticky*decoration: bare
Swm*panel.bare: \
    button name +0+0 \
    button close -0+0
Swm*panel.bare.resizeCorners: True
|};
  ]

type wm = { step : unit -> unit; execute : Xid.t -> string -> unit }

let start_current server =
  let module Wm = Swm_core.Wm in
  let module Functions = Swm_core.Functions in
  let wm = Wm.start ~resources server in
  {
    step = (fun () -> ignore (Wm.step wm));
    execute =
      (fun win line ->
        match Wm.find_client wm win with
        | Some client ->
            ignore
              (Functions.execute_string (Wm.ctx wm)
                 (Functions.invocation ~client ~screen:0 ())
                 line)
        | None -> ());
  }

let start_reference server =
  let module Wm = Swm_core_reference.Wm in
  let module Functions = Swm_core_reference.Functions in
  let wm = Wm.start ~resources server in
  {
    step = (fun () -> ignore (Wm.step wm));
    execute =
      (fun win line ->
        match Wm.find_client wm win with
        | Some client ->
            ignore
              (Functions.execute_string (Wm.ctx wm)
                 (Functions.invocation ~client ~screen:0 ())
                 line)
        | None -> ());
  }

type wm_op =
  | Launch of bool * int * int  (** a [Bare] client?, width, height *)
  | Launch_shaped  (** an oclock: the [shapeit] decoration *)
  | Retitle of int * int  (** client, title length *)
  | Resize of int * int * int
  | Function of int * string  (** f.stick redecorates; f.iconify, f.deiconify *)
  | Withdraw of int
  | Close of int

let show_op = function
  | Launch (bare, w, h) -> Printf.sprintf "launch %s %dx%d" (if bare then "Bare" else "XTerm") w h
  | Launch_shaped -> "launch oclock"
  | Retitle (i, n) -> Printf.sprintf "retitle %d to %d chars" i n
  | Resize (i, w, h) -> Printf.sprintf "resize %d to %dx%d" i w h
  | Function (i, f) -> Printf.sprintf "%s on %d" f i
  | Withdraw i -> Printf.sprintf "withdraw %d" i
  | Close i -> Printf.sprintf "close %d" i

let wm_op_gen =
  let open QCheck2.Gen in
  let client = int_range 0 7 in
  frequency
    [
      (4, map3 (fun bare w h -> Launch (bare, w, h)) (frequencyl [ (3, false); (1, true) ])
            (int_range 20 400) (int_range 20 300));
      (1, pure Launch_shaped);
      (3, map2 (fun i n -> Retitle (i, n)) client (int_range 0 40));
      (3, map3 (fun i w h -> Resize (i, w, h)) client (int_range 10 500) (int_range 10 400));
      (3, map2 (fun i f -> Function (i, f)) client
            (oneofl [ "f.stick"; "f.iconify"; "f.deiconify"; "f.raise"; "f.lower" ]));
      (1, map (fun i -> Withdraw i) client);
      (1, map (fun i -> Close i) client);
    ]

(* The events each live client has queued on its own connection. *)
let client_events apps =
  List.map
    (fun app ->
      List.map (Format.asprintf "%a" Event.pp) (Server.flush_batch (Client_app.conn app)))
    apps

(* After every step the two servers must also hold the same windows: ids,
   parents, geometry, stacking, mapped state and contents. *)
let prop_wm_events_match_reference =
  QCheck2.Test.make ~name:"clients see the same events through either realization" ~count:60
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 30) wm_op_gen)
    (fun ops ->
      let side start =
        let server = Server.create () in
        let wm = start server in
        wm.step ();
        (server, wm, ref [])
      in
      let sides = [ side start_current; side start_reference ] in
      let apply (server, wm, apps) op =
        let live () = List.filter (fun app -> Server.window_exists server (Client_app.window app)) !apps in
        let pick i = match live () with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
        (match op with
        | Launch (bare, w, h) ->
            let n = List.length !apps in
            apps :=
              !apps
              @ [
                  Client_app.launch server
                    (Client_app.spec ~instance:(Printf.sprintf "c%d" n)
                       ~class_:(if bare then "Bare" else "XTerm")
                       ~us_position:true (Geom.rect (30 + (n * 20)) 40 w h));
                ]
        | Launch_shaped ->
            let n = List.length !apps in
            apps := !apps @ [ Swm_clients.Stock.oclock server ~at:(Geom.point (40 + (n * 20)) 60) () ]
        | Retitle (i, n) ->
            Option.iter (fun app -> Client_app.set_name app (String.make n 't')) (pick i)
        | Resize (i, w, h) -> Option.iter (fun app -> Client_app.resize_self app (w, h)) (pick i)
        | Function (i, f) -> Option.iter (fun app -> wm.execute (Client_app.window app) f) (pick i)
        | Withdraw i -> Option.iter Client_app.withdraw (pick i)
        | Close i -> Option.iter Client_app.destroy (pick i));
        wm.step ();
        (client_events (live ()), server_state server [])
      in
      List.iteri
        (fun n op ->
          match List.map (fun s -> apply s op) sides with
          | [ (current, _); (reference, _) ] when current <> reference ->
              let show l = String.concat " | " (List.map (String.concat ", ") l) in
              QCheck2.Test.fail_reportf "after op %d (%s), client events:\n  current   %s\n  reference %s"
                n (show_op op) (show current) (show reference)
          | [ (_, current); (_, reference) ] when current <> reference ->
              let x, y = Option.get (first_difference (current, reference)) in
              QCheck2.Test.fail_reportf "after op %d (%s), windows:\n  current   %s\n  reference %s"
                n (show_op op) x y
          | _ -> ())
        ops;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_realize_matches_reference;
    QCheck_alcotest.to_alcotest prop_wm_events_match_reference;
  ]
