(** Server addresses: Unix-domain socket paths and TCP host:port pairs.

    The loopback harness defaults to Unix-domain sockets (no ports to
    collide, the kernel cleans nothing up behind our back); TCP covers
    multi-host deployments and the CLI.  [Tcp] with port 0 asks the
    kernel for an ephemeral port — {!Server.endpoint} reports the bound
    one. *)

type t = Unix_sock of string | Tcp of { host : string; port : int }

val of_string : string -> (t, string) result
(** ["unix:/path/to.sock"], ["tcp:host:port"], or bare ["host:port"]. *)

val to_string : t -> string
(** Inverse of {!of_string} (always with an explicit scheme). *)

val pp : Format.formatter -> t -> unit

val to_sockaddr : t -> Unix.sockaddr
(** @raise Failure if a TCP host does not resolve. *)

val socket_domain : t -> Unix.socket_domain

val cleanup : t -> unit
(** Remove a stale Unix-domain socket file, if any; no-op for TCP. *)

(** {2 Sockets} *)

val ignore_sigpipe : unit -> unit
(** Make a peer vanishing mid-write surface as [EPIPE] instead of
    killing the process.  Idempotent. *)

val close_quietly : Unix.file_descr -> unit

val set_nodelay : Unix.file_descr -> unit
(** [TCP_NODELAY], so batched flushes hit the wire at once; a no-op on
    Unix-domain sockets. *)

val listen : t -> Unix.file_descr * t
(** Bind and listen (backlog 64), removing a stale socket file first.
    Returns the listening socket and the bound endpoint, a TCP port 0
    resolved to the one the kernel picked. *)

val dial : t -> Unix.file_descr
(** Connect a stream socket ([TCP_NODELAY] on TCP), giving up after
    0.5 s if the connect cannot complete (an unreachable host, a full
    listen backlog). *)
