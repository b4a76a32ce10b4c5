module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop

let command_of server win =
  match Server.get_property server win ~name:Prop.wm_command with
  | Some (Prop.String s) -> Some s
  | Some (Prop.String_list argv) -> Some (String.concat " " argv)
  | Some _ | None -> None

(* xplaces sees root-relative geometry of the client window (through any
   reparenting, like the real one did by chasing WM_STATE). *)
let snapshot server ~screen =
  let root = Server.root server ~screen in
  let buf = Buffer.create 256 in
  let rec walk win =
    (match command_of server win with
    | Some command ->
        let g = Server.root_geometry server win in
        Buffer.add_string buf
          (Printf.sprintf "%s -geometry %dx%d+%d+%d\n" command g.w g.h g.x g.y)
    | None -> ());
    List.iter walk (Server.children_of server win)
  in
  List.iter walk (Server.children_of server root);
  Buffer.contents buf

module Toolkit_sim = struct
  type flavour = Xt | Xview

  let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let flavour_of_command command =
    if
      List.exists
        (fun w -> String.length w >= 2 && w.[0] = '-' && w.[1] = 'W')
        (words command)
    then Xview
    else Xt

  let apply_options flavour command ~default =
    let rec scan (geom : Geom.rect) = function
      | [] -> geom
      | "-geometry" :: g :: rest when flavour = Xt -> (
          match Geom.parse g with
          | Ok spec -> scan (Geom.resolve spec ~default:geom ~within:(Geom.rect 0 0 0 0)) rest
          | Error _ -> scan geom rest)
      | "-Wp" :: x :: y :: rest when flavour = Xview -> (
          match (int_of_string_opt x, int_of_string_opt y) with
          | Some x, Some y -> scan { geom with Geom.x; y } rest
          | _ -> scan geom rest)
      | "-Ws" :: w :: h :: rest when flavour = Xview -> (
          match (int_of_string_opt w, int_of_string_opt h) with
          | Some w, Some h -> scan { geom with Geom.w; h } rest
          | _ -> scan geom rest)
      | _ :: rest -> scan geom rest
    in
    scan default (words command)
end
