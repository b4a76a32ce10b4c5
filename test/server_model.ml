(* The list-based protocol model [Server] replaced with sibling links and
   per-connection resource lists, kept as the reference its property tests
   compare against: each window's children in a bottom-to-top list,
   selections in a per-window list (newest first), save sets in a
   per-connection list (newest first), and "what a connection holds" found
   by searching every window.  Only the window tree, selections, save sets
   and the structure events they produce are modelled; geometry and event
   payloads other than window and parent are not. *)

module Event = Swm_xlib.Event
module Xid = Swm_xlib.Xid

type win = {
  parent : Xid.t; (* none for a root *)
  children : Xid.t list; (* bottom to top *)
  owner : int; (* 0 for a root *)
  mapped : bool;
  override : bool;
  sel : (int * Event.mask list) list; (* newest first *)
}

type t = {
  mutable wins : (Xid.t * win) list;
  mutable saves : (int * Xid.t list) list; (* cid -> windows, newest first *)
  observer : int; (* the connection whose received events are predicted *)
  mutable out : string list; (* events predicted for [observer], newest first *)
}

exception Bad_access

let create ~root ~observer =
  {
    wins =
      [ (root, { parent = Xid.none; children = []; owner = 0; mapped = true; override = true; sel = [] }) ];
    saves = [];
    observer;
    out = [];
  }

let get m id = List.assoc id m.wins
let set m id w = m.wins <- (id, w) :: List.remove_assoc id m.wins
let exists m id = List.mem_assoc id m.wins
let windows m = List.sort Xid.compare (List.map fst m.wins)
let parent m id = (get m id).parent
let children m id = (get m id).children

let selected m ~cid id =
  match List.assoc_opt cid (get m id).sel with Some masks -> masks | None -> []

let save_set m cid = Option.value (List.assoc_opt cid m.saves) ~default:[]

(* Take the events predicted since the last call, oldest first. *)
let take_events m =
  let evs = List.rev m.out in
  m.out <- [];
  evs

let show_event = function
  | Event.Map_notify { window } -> Printf.sprintf "map %d" (Xid.to_int window)
  | Event.Unmap_notify { window } -> Printf.sprintf "unmap %d" (Xid.to_int window)
  | Event.Destroy_notify { window } -> Printf.sprintf "destroy %d" (Xid.to_int window)
  | Event.Reparent_notify { window; parent; _ } ->
      Printf.sprintf "reparent %d to %d" (Xid.to_int window) (Xid.to_int parent)
  | Event.Configure_notify { window; _ } -> Printf.sprintf "configure %d" (Xid.to_int window)
  | ev -> Event.kind_name ev

let notify m id mask ev =
  if List.exists (fun (cid, masks) -> cid = m.observer && List.mem mask masks) (get m id).sel
  then m.out <- show_event ev :: m.out

let structure_notify m id ev =
  notify m id Event.Structure_notify ev;
  let p = parent m id in
  if not (Xid.is_none p) then notify m p Event.Substructure_notify ev

let redirect_holder m id =
  List.find_map
    (fun (cid, masks) -> if List.mem Event.Substructure_redirect masks then Some cid else None)
    (get m id).sel

let without id l = List.filter (fun c -> not (Xid.equal c id)) l

let create_window m ~cid ~parent:p ~override id =
  set m id { parent = p; children = []; owner = cid; mapped = false; override; sel = [] };
  let pw = get m p in
  set m p { pw with children = pw.children @ [ id ] }

let rec destroy m id =
  List.iter (destroy m) (children m id);
  let w = get m id in
  if not (Xid.is_none w.parent) then begin
    let pw = get m w.parent in
    set m w.parent { pw with children = without id pw.children };
    structure_notify m id (Event.Destroy_notify { window = id })
  end;
  m.saves <- List.map (fun (cid, l) -> (cid, without id l)) m.saves;
  m.wins <- List.remove_assoc id m.wins

let map_window m ~cid id =
  let w = get m id in
  if not (Xid.is_none w.parent) then
    match redirect_holder m w.parent with
    | Some holder when holder <> cid && not w.override -> ()
    | Some _ | None ->
        if not w.mapped then begin
          set m id { w with mapped = true };
          structure_notify m id (Event.Map_notify { window = id })
        end

(* MapSubwindows: MapWindow on each unmapped child, top to bottom. *)
let map_subwindows m ~cid id =
  List.iter (fun c -> if not (get m c).mapped then map_window m ~cid c) (List.rev (children m id))

let unmap_window m id =
  let w = get m id in
  if w.mapped then begin
    set m id { w with mapped = false };
    structure_notify m id (Event.Unmap_notify { window = id })
  end

(* The list stacking rule: remove the window, then insert it next to the
   sibling, or on top when the sibling is not found among the rest. *)
let restack m ~cid id mode sibling =
  let w = get m id in
  if not (Xid.is_none w.parent) then
    match redirect_holder m w.parent with
    | Some holder when holder <> cid && not w.override -> ()
    | Some _ | None ->
        let pw = get m w.parent in
        let rest = without id pw.children in
        let children =
          match (mode, sibling) with
          | Event.Above, None -> rest @ [ id ]
          | Event.Below, None -> id :: rest
          | mode, Some s ->
              let rec insert = function
                | [] -> [ id ]
                | c :: tl when Xid.equal c s -> (
                    match mode with Event.Above -> c :: id :: tl | Event.Below -> id :: c :: tl)
                | c :: tl -> c :: insert tl
              in
              insert rest
        in
        set m w.parent { pw with children };
        structure_notify m id
          (Event.Configure_notify
             { window = id; geom = Swm_xlib.Geom.rect 0 0 0 0; border = 0; synthetic = false })

let rec inside m w id =
  Xid.equal w id || ((not (Xid.is_none w)) && inside m (parent m w) id)

let reparent m id ~new_parent =
  if inside m new_parent id then raise Bad_access;
  let w = get m id in
  let old = w.parent in
  if w.mapped then begin
    set m id { w with mapped = false };
    structure_notify m id (Event.Unmap_notify { window = id })
  end;
  let ow = get m old in
  set m old { ow with children = without id ow.children };
  set m id { (get m id) with parent = new_parent };
  let nw = get m new_parent in
  set m new_parent { nw with children = nw.children @ [ id ] };
  let ev = Event.Reparent_notify { window = id; parent = new_parent; pos = Swm_xlib.Geom.point 0 0 } in
  notify m id Event.Structure_notify ev;
  notify m old Event.Substructure_notify ev;
  notify m new_parent Event.Substructure_notify ev;
  if w.mapped then begin
    set m id { (get m id) with mapped = true };
    structure_notify m id (Event.Map_notify { window = id })
  end

let select_input m ~cid id masks =
  let w = get m id in
  (if List.mem Event.Substructure_redirect masks then
     match redirect_holder m id with
     | Some holder when holder <> cid -> raise Bad_access
     | Some _ | None -> ());
  let others = List.filter (fun (c, _) -> c <> cid) w.sel in
  set m id { w with sel = (if masks = [] then others else (cid, masks) :: others) }

let add_to_save_set m ~cid id =
  let l = save_set m cid in
  if not (List.mem id l) then m.saves <- (cid, id :: l) :: List.remove_assoc cid m.saves

let remove_from_save_set m ~cid id =
  m.saves <- (cid, without id (save_set m cid)) :: List.remove_assoc cid m.saves

let rec has_ancestor_owned_by m id cid =
  let p = parent m id in
  (not (Xid.is_none p)) && ((get m p).owner = cid || has_ancestor_owned_by m p cid)

(* Returns the entries the indexed server should examine: the save set,
   the windows the connection created, and its selections on windows it
   does not own that outlive its own windows. *)
let disconnect m ~cid ~root =
  let saved = List.length (save_set m cid) in
  List.iter
    (fun id ->
      if exists m id && has_ancestor_owned_by m id cid then begin
        reparent m id ~new_parent:root;
        if not (get m id).mapped then begin
          set m id { (get m id) with mapped = true };
          structure_notify m id (Event.Map_notify { window = id })
        end
      end)
    (save_set m cid);
  m.saves <- List.remove_assoc cid m.saves;
  let owned = List.filter (fun id -> (get m id).owner = cid) (windows m) in
  List.iter
    (fun id -> if exists m id && not (has_ancestor_owned_by m id cid) then destroy m id)
    owned;
  let foreign =
    List.length
      (List.filter (fun (_, w) -> w.owner <> cid && List.mem_assoc cid w.sel) m.wins)
  in
  m.wins <-
    List.map (fun (id, w) -> (id, { w with sel = List.filter (fun (c, _) -> c <> cid) w.sel })) m.wins;
  saved + List.length owned + foreign
