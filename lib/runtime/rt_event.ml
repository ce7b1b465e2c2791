type t =
  | Commit of { tid : int; version : int; pages : int list }
  | Release of { tid : int; obj : string }
  | Acquire of { tid : int; obj : string }
  | Conflict of {
      tid : int;
      version : int;
      page : int;
      first_byte : int;
      last_byte : int;
      loser_tid : int;
      loser_version : int;
    }
  | Boundary of { tid : int; ic : int; overflow : bool }
  | Commit_hash of { tid : int; version : int; hash : string }
  | Txn_abort of { tid : int; seq : int; retries : int }

type observer = t -> unit

let obj_mutex m = Printf.sprintf "m:%d" m
let obj_cond c = Printf.sprintf "c:%d" c
let obj_barrier b = Printf.sprintf "b:%d" b
let obj_thread t = Printf.sprintf "t:%d" t
let obj_exit t = obj_thread t ^ ":exit"

let label = function
  | Commit { version; _ } -> Printf.sprintf "commit:v%d" version
  | Release { obj; _ } -> "rel:" ^ obj
  | Acquire { obj; _ } -> "acq:" ^ obj
  | Conflict { page; first_byte; last_byte; _ } ->
      Printf.sprintf "conflict:p%d+%d..%d" page first_byte last_byte
  | Boundary { ic; overflow; _ } ->
      Printf.sprintf "%s:%d" (if overflow then "overflow" else "chunk-end") ic
  | Commit_hash { version; _ } -> Printf.sprintf "hash:v%d" version
  | Txn_abort { seq; retries; _ } -> Printf.sprintf "txn-abort:%d.%d" seq retries

let tid = function
  | Commit { tid; _ }
  | Release { tid; _ }
  | Acquire { tid; _ }
  | Conflict { tid; _ }
  | Boundary { tid; _ }
  | Commit_hash { tid; _ }
  | Txn_abort { tid; _ } ->
      tid

let pp ppf ev =
  match ev with
  | Commit { tid; version; pages } ->
      Format.fprintf ppf "@[commit t%d v%d [%s]@]" tid version
        (String.concat "," (List.map string_of_int pages))
  | Release { tid; obj } -> Format.fprintf ppf "rel t%d %s" tid obj
  | Acquire { tid; obj } -> Format.fprintf ppf "acq t%d %s" tid obj
  | Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version } ->
      Format.fprintf ppf "@[conflict t%d v%d p%d[%d..%d] over t%d v%d@]" tid version page
        first_byte last_byte loser_tid loser_version
  | Boundary { tid; ic; overflow } ->
      Format.fprintf ppf "%s t%d ic=%d" (if overflow then "overflow" else "chunk-end") tid ic
  | Commit_hash { tid; version; hash } -> Format.fprintf ppf "hash t%d v%d %s" tid version hash
  | Txn_abort { tid; seq; retries } ->
      Format.fprintf ppf "txn-abort t%d seq=%d retries=%d" tid seq retries

let to_json ev : Obs.Json.t =
  let open Obs.Json in
  match ev with
  | Commit { tid; version; pages } ->
      Obj
        [
          ("kind", String "commit");
          ("tid", Int tid);
          ("version", Int version);
          ("pages", List (List.map (fun p -> Int p) pages));
        ]
  | Release { tid; obj } ->
      Obj [ ("kind", String "release"); ("tid", Int tid); ("obj", String obj) ]
  | Acquire { tid; obj } ->
      Obj [ ("kind", String "acquire"); ("tid", Int tid); ("obj", String obj) ]
  | Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version } ->
      Obj
        [
          ("kind", String "conflict");
          ("tid", Int tid);
          ("version", Int version);
          ("page", Int page);
          ("first_byte", Int first_byte);
          ("last_byte", Int last_byte);
          ("loser_tid", Int loser_tid);
          ("loser_version", Int loser_version);
        ]
  | Boundary { tid; ic; overflow } ->
      Obj
        [
          ("kind", String "boundary");
          ("tid", Int tid);
          ("ic", Int ic);
          ("overflow", Bool overflow);
        ]
  | Commit_hash { tid; version; hash } ->
      Obj
        [
          ("kind", String "commit_hash");
          ("tid", Int tid);
          ("version", Int version);
          ("hash", String hash);
        ]
  | Txn_abort { tid; seq; retries } ->
      Obj
        [
          ("kind", String "txn_abort");
          ("tid", Int tid);
          ("seq", Int seq);
          ("retries", Int retries);
        ]

(* Inverse of [to_json]; the schedule logs of [lib/replay] round-trip
   through exactly the schema the trace exporters emit. *)
let of_json (j : Obs.Json.t) : (t, string) result =
  let open Obs.Json in
  let field name conv =
    match member name j with
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "rt_event: field %S has the wrong type" name))
    | None -> Error (Printf.sprintf "rt_event: missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let int name = field name to_int_opt in
  let str name = field name to_string_opt in
  let bool name = field name (function Bool b -> Some b | _ -> None) in
  let* kind = str "kind" in
  match kind with
  | "commit" ->
      let* tid = int "tid" in
      let* version = int "version" in
      let* pages =
        field "pages" (fun v ->
            match to_list_opt v with
            | Some items ->
                let rec conv acc = function
                  | [] -> Some (List.rev acc)
                  | x :: rest -> (
                      match to_int_opt x with Some i -> conv (i :: acc) rest | None -> None)
                in
                conv [] items
            | None -> None)
      in
      Ok (Commit { tid; version; pages })
  | "release" ->
      let* tid = int "tid" in
      let* obj = str "obj" in
      Ok (Release { tid; obj })
  | "acquire" ->
      let* tid = int "tid" in
      let* obj = str "obj" in
      Ok (Acquire { tid; obj })
  | "conflict" ->
      let* tid = int "tid" in
      let* version = int "version" in
      let* page = int "page" in
      let* first_byte = int "first_byte" in
      let* last_byte = int "last_byte" in
      let* loser_tid = int "loser_tid" in
      let* loser_version = int "loser_version" in
      Ok (Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version })
  | "boundary" ->
      let* tid = int "tid" in
      let* ic = int "ic" in
      let* overflow = bool "overflow" in
      Ok (Boundary { tid; ic; overflow })
  | "commit_hash" ->
      let* tid = int "tid" in
      let* version = int "version" in
      let* hash = str "hash" in
      Ok (Commit_hash { tid; version; hash })
  | "txn_abort" ->
      let* tid = int "tid" in
      let* seq = int "seq" in
      let* retries = int "retries" in
      Ok (Txn_abort { tid; seq; retries })
  | other -> Error (Printf.sprintf "rt_event: unknown kind %S" other)
