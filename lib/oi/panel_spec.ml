module Geom = Swm_xlib.Geom

type item = Wobj.item = { item_kind : Wobj.kind; item_name : string; position : Geom.spec }

let kind_of_string = function
  | "panel" -> Some Wobj.Panel
  | "button" -> Some Wobj.Button
  | "text" -> Some Wobj.Text
  | "menu" -> Some Wobj.Menu
  | _ -> None

let tokens s =
  String.split_on_char ' ' (String.map (function '\n' | '\t' -> ' ' | c -> c) s)
  |> List.filter (fun t -> t <> "")

let parse spec =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | [ t ] -> Error (Printf.sprintf "incomplete item near %S" t)
    | [ t; n ] -> Error (Printf.sprintf "missing position for %s %s" t n)
    | t :: n :: p :: rest -> (
        match kind_of_string t with
        | None -> Error (Printf.sprintf "unknown object type %S" t)
        | Some item_kind -> (
            match Geom.parse p with
            | Error msg -> Error (Printf.sprintf "bad position for %s: %s" n msg)
            | Ok position -> loop ({ item_kind; item_name = n; position } :: acc) rest))
  in
  loop [] (tokens spec)

let build_from_spec tk ~lookup ~kind ~name ~spec =
  let rec go ~visited ~kind ~name ~spec =
    match Wobj.definition tk spec ~parse with
    | Error msg -> Error (Printf.sprintf "panel %S: %s" name msg)
    | Ok items ->
        let root = Wobj.make tk kind ~name in
        let rec add_items = function
          | [] -> Ok root
          | { item_kind; item_name; position } :: rest -> (
              let child_result =
                match item_kind with
                | Wobj.Panel | Wobj.Menu -> (
                    if List.mem item_name visited then
                      Error (Printf.sprintf "panel definition cycle at %S" item_name)
                    else
                      match lookup item_name with
                      | Some child_spec ->
                          go ~visited:(item_name :: visited) ~kind:item_kind
                            ~name:item_name ~spec:child_spec
                      | None -> Ok (Wobj.make tk item_kind ~name:item_name))
                | Wobj.Button | Wobj.Text ->
                    Ok (Wobj.make tk item_kind ~name:item_name)
              in
              match child_result with
              | Error _ as e -> e
              | Ok child ->
                  Wobj.add_child root child ~position;
                  add_items rest)
        in
        add_items items
  in
  go ~visited:[ name ] ~kind ~name ~spec

let build tk ~lookup ~kind ~name =
  match lookup name with
  | None -> Error (Printf.sprintf "no definition for %s %S" (Wobj.kind_name kind) name)
  | Some spec -> build_from_spec tk ~lookup ~kind ~name ~spec
