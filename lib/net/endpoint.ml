type t = Unix_sock of string | Tcp of { host : string; port : int }

let of_string s =
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 -> Ok (Tcp { host; port = p })
    | _ -> Error (Printf.sprintf "invalid port %S in %S" port s)
  in
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "endpoint %S: expected unix:PATH or HOST:PORT" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "empty unix socket path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "endpoint %S: expected tcp:HOST:PORT" s)
          | Some j ->
              tcp
                (String.sub rest 0 j)
                (String.sub rest (j + 1) (String.length rest - j - 1)))
      | host -> tcp host rest)

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let pp ppf e = Format.pp_print_string ppf (to_string e)

let resolve host =
  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
  with Not_found | Invalid_argument _ -> (
    try Unix.inet_addr_of_string host
    with Failure _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

let to_sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp { host; port } -> Unix.ADDR_INET (resolve host, port)

let socket_domain = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let cleanup = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* ----- sockets ----------------------------------------------------------- *)

(* A peer vanishing mid-write must surface as EPIPE, not kill the
   process. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let ignore_sigpipe () = Lazy.force sigpipe_ignored

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Batched flushes must hit the wire immediately: Nagle + delayed-ACK
   would otherwise stall the round-trip pipeline on TCP loopback. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let listen endpoint =
  cleanup endpoint;
  let fd = Unix.socket (socket_domain endpoint) Unix.SOCK_STREAM 0 in
  (try
     (match endpoint with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (to_sockaddr endpoint);
     Unix.listen fd 64
   with e ->
     close_quietly fd;
     raise e);
  let actual =
    match endpoint with
    | Tcp { host; port = 0 } -> (
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Tcp { host; port }
        | _ -> endpoint)
    | _ -> endpoint
  in
  (fd, actual)

let connect_timeout = 0.5

(* A dial that cannot complete (an unreachable host, a full listen
   backlog) gives up after [connect_timeout]: Linux bounds a blocking
   connect(2) by the socket's send timeout (socket(7)), which is cleared
   once connected so later writes block as before. *)
let dial ep =
  let fd = Unix.socket (socket_domain ep) Unix.SOCK_STREAM 0 in
  try
    (match ep with Tcp _ -> set_nodelay fd | Unix_sock _ -> ());
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO connect_timeout;
    Unix.connect fd (to_sockaddr ep);
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.;
    fd
  with e ->
    close_quietly fd;
    raise e
