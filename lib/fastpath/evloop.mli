(** The one socket driver behind both serving front ends: a
    [clara serve] worker ({!Serve.Server.run}) and a [clara router]
    ({!Router.Front.run}) differ only in the {!service} they hand it.

    {!serve} owns the listener's whole lifecycle: it ignores SIGPIPE,
    routes SIGTERM to [request_drain] (restoring the old handler on
    exit), unlinks a stale socket, binds and listens, runs the poll loop
    until [phase] leaves [`Serve], drains, and finally closes every
    connection and unlinks the socket.

    Each poll is one level-triggered round over [Unix.select] (portable,
    and the fd counts are bounded by [max_clients]): it flushes writable
    connections, accepts at most one new client, and collects every
    complete request line that arrived.  The round's lines from all
    connections go to [batch] as one list, so independent clients share
    the caller's fan-out and admission bound; the replies are split back
    to their connections in order and coalesced into one write per
    connection.  A client beyond [max_clients] gets the [reject] line and
    is hung up on.

    Drain ([phase] = [`Drain]): stop accepting, close and unlink the
    listener, and keep answering connected clients for up to 0.5 s; an
    idle 50 ms round with nothing left to write ends the drain early.
    [`Stop] skips the drain.

    Connection lifecycle: [Reading] (contributing lines to rounds) →
    [Closing] (peer half-closed with a final unterminated line or
    undrained replies; only flushes) → [Dead] (closed, detached).

    Fault points: [serve.accept], [serve.read] and [serve.write] fire
    inside the corresponding syscall wrappers as the matching
    [Unix_error]s ([EMFILE]/[ECONNRESET]/[EPIPE]).  Disconnecting peers
    (EPIPE/ECONNRESET) go to [on_disconnect]; other I/O errors to
    [on_error] with a log-context string. *)

type service = {
  name : string;  (** log-event prefix: the drain logs ["<name>.drain"] *)
  max_clients : int;
  batch : string list -> string list;  (** one reply per line, in order *)
  reject : unit -> string;
      (** the reply line for a connection beyond [max_clients]; the
          caller counts the shed here *)
  on_disconnect : fn:string -> Unix.error -> unit;
  on_error : ctx:string -> fn:string -> Unix.error -> unit;
  on_listen : unit -> unit;  (** the socket accepts connections from now on *)
  before_poll : unit -> unit;  (** housekeeping before each serving-phase poll *)
  request_drain : unit -> unit;  (** what SIGTERM calls *)
  phase : unit -> [ `Serve | `Drain | `Stop ];
}

(** Serve [socket_path] until [phase] leaves [`Serve], then drain if it
    says [`Drain].  Returns (or re-raises an exception from a callback)
    with every connection closed and the socket unlinked. *)
val serve : socket_path:string -> service -> unit
