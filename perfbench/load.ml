(* The load generator: one single-threaded process, pre-rendered request
   lines, at most one connection per phase.

   Replies are not parsed while the clock runs.  Every line pins its id
   and trace id, so all replies to one line differ at most in the
   cached/path markers; the generator hashes each reply as it frames it
   and keeps one copy per distinct (line, hash).  Those copies are checked
   against the in-process oracle after timing ends. *)

let now = Unix.gettimeofday

(* -- distinct replies per line -- *)

type variant = { mutable count : int; sample : string }

type replies = (int * int, variant) Hashtbl.t

let replies () : replies = Hashtbl.create 64

let note (r : replies) ~key ~hash bytes off len =
  match Hashtbl.find_opt r (key, hash) with
  | Some v -> v.count <- v.count + 1
  | None -> Hashtbl.add r (key, hash) { count = 1; sample = Bytes.sub_string bytes off len }

(* -- reply framing: FNV-1a over each line as its bytes arrive -- *)

type reader = {
  chunk : Bytes.t;
  line : Buffer.t;  (** bytes of the reply being framed *)
  mutable hash : int;
}

let fnv_basis = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let reader () = { chunk = Bytes.create 65536; line = Buffer.create 4096; hash = fnv_basis }

(* Read what is available and call [on_line hash bytes off len] per
   complete reply.  [false] on EOF or a read error. *)
let pump rd fd ~on_line =
  match Unix.read fd rd.chunk 0 (Bytes.length rd.chunk) with
  | 0 -> false
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      let c = Bytes.unsafe_get rd.chunk i in
      if c = '\n' then begin
        if Buffer.length rd.line = 0 then on_line rd.hash rd.chunk !start (i - !start)
        else begin
          Buffer.add_subbytes rd.line rd.chunk !start (i - !start);
          let s = Buffer.to_bytes rd.line in
          on_line rd.hash s 0 (Bytes.length s);
          Buffer.clear rd.line
        end;
        rd.hash <- fnv_basis;
        start := i + 1
      end
      else rd.hash <- (rd.hash lxor Char.code c) * fnv_prime
    done;
    if !start < n then Buffer.add_subbytes rd.line rd.chunk !start (n - !start);
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* -- non-blocking writes -- *)

type writer = { pending : (string * int ref) Queue.t }

let writer () = { pending = Queue.create () }

let flush w fd =
  let rec go () =
    match Queue.peek_opt w.pending with
    | None -> true
    | Some (s, off) -> (
      let len = String.length s - !off in
      match Unix.single_write_substring fd s !off len with
      | n when n = len ->
        ignore (Queue.pop w.pending);
        go ()
      | n ->
        off := !off + n;
        true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
      | exception Unix.Unix_error _ -> false)
  in
  go ()

let connect socket =
  match Topo.connect socket with
  | None -> failwith ("cannot connect to " ^ socket)
  | Some fd ->
    Unix.set_nonblock fd;
    fd

let select_fd fd ~write timeout =
  match Unix.select [ fd ] (if write then [ fd ] else []) [] (Float.max 0.0 timeout) with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* -- phases -- *)

type result = {
  sent : int;
  received : int;  (** all replies, including those drained after the window *)
  in_window : int;  (** closed loop: replies completed inside the window *)
  latency_us : float array;  (** open loop: per reply, from its due time *)
  late_us : float array;  (** open loop: send time minus due time *)
  elapsed_s : float;  (** closed loop: measured window *)
  rates : float array;  (** closed loop: replies per second in each sub-window *)
}

let drain_timeout_s = 5.0

(* [wire] lines are newline-terminated, rendered before any clock runs.
   Lines sent together go out in one write, so the server reads them as
   one batch rather than however the kernel happened to split them. *)

let batch wire keys = String.concat "" (List.map (fun k -> wire.(k)) keys)

(* Send every line at once and wait for every reply: set-up priming. *)
let burst ~socket ~wire ~replies:(r : replies) ~keys =
  let fd = connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let w = writer () and rd = reader () in
  Queue.add (batch wire (Array.to_list keys), ref 0) w.pending;
  let got = ref 0 and ok = ref true in
  let deadline = now () +. 60.0 in
  while !ok && !got < Array.length keys && now () < deadline do
    ok := flush w fd;
    if select_fd fd ~write:(not (Queue.is_empty w.pending)) (deadline -. now ()) then
      ok :=
        pump rd fd ~on_line:(fun hash b off len ->
            note r ~key:keys.(!got) ~hash b off len;
            incr got)
        && !ok
  done;
  !got

(* Open loop: request i is due at t0 + at.(i) whatever happened before
   it; its latency runs from that due time, so a stall is charged to
   every request it delays. *)
let open_loop ~socket ~wire ~keys ~at ~replies:(r : replies) =
  let fd = connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let n = Array.length keys in
  let w = writer () and rd = reader () in
  let latency = Array.make n 0.0 and late = Array.make n 0.0 in
  let t0 = now () +. 0.01 in
  let sent = ref 0 and got = ref 0 and ok = ref true in
  let on_line hash b off len =
    let t = now () in
    latency.(!got) <- (t -. (t0 +. at.(!got))) *. 1e6;
    note r ~key:keys.(!got) ~hash b off len;
    incr got
  in
  let last_due = if n = 0 then t0 else t0 +. at.(n - 1) in
  while !ok && !got < n && now () < last_due +. drain_timeout_s do
    let t = now () in
    while !sent < n && t0 +. at.(!sent) <= t do
      late.(!sent) <- (t -. (t0 +. at.(!sent))) *. 1e6;
      Queue.add (wire.(keys.(!sent)), ref 0) w.pending;
      incr sent
    done;
    ok := flush w fd;
    let wait =
      if !sent < n then t0 +. at.(!sent) -. now () else last_due +. drain_timeout_s -. now ()
    in
    if select_fd fd ~write:(not (Queue.is_empty w.pending)) wait then
      ok := pump rd fd ~on_line && !ok
  done;
  { sent = !sent; received = !got; in_window = !got; latency_us = Array.sub latency 0 !got;
    late_us = Array.sub late 0 !sent; elapsed_s = 0.0; rates = [||] }

(* Closed loop: keep [depth] requests outstanding on one connection for
   [duration_s]; capacity is the replies completed inside the window.
   Requests walk [keys] cyclically from index [first]. *)
let closed_loop ~socket ~wire ~keys ~first ~depth ~duration_s ~window_s ~replies:(r : replies) =
  let fd = connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let w = writer () and rd = reader () in
  let nkeys = Array.length keys in
  let sent = ref 0 and got = ref 0 and ok = ref true in
  let on_line hash b off len =
    note r ~key:keys.((first + !got) mod nkeys) ~hash b off len;
    incr got
  in
  let t_start = now () in
  let t_end = t_start +. duration_s in
  let in_window = ref 0 in
  let rates = ref [] and mark_t = ref t_start and mark_n = ref 0 in
  while !ok && now () < t_end do
    let refill = List.init (depth - (!sent - !got)) (fun i -> keys.((first + !sent + i) mod nkeys)) in
    if refill <> [] then begin
      Queue.add (batch wire refill, ref 0) w.pending;
      sent := !sent + List.length refill
    end;
    ok := flush w fd;
    if select_fd fd ~write:(not (Queue.is_empty w.pending)) (t_end -. now ()) then
      ok := pump rd fd ~on_line && !ok;
    in_window := !got;
    let t = now () in
    if t -. !mark_t >= window_s then begin
      rates := float_of_int (!got - !mark_n) /. (t -. !mark_t) :: !rates;
      mark_t := t;
      mark_n := !got
    end
  done;
  let elapsed_s = now () -. t_start in
  (* A phase shorter than one window counts as one window. *)
  if !rates = [] && elapsed_s > 0.0 then rates := [ float_of_int !in_window /. elapsed_s ];
  let deadline = now () +. drain_timeout_s in
  while !ok && !got < !sent && now () < deadline do
    ok := flush w fd;
    if select_fd fd ~write:(not (Queue.is_empty w.pending)) (deadline -. now ()) then
      ok := pump rd fd ~on_line && !ok
  done;
  { sent = !sent; received = !got; in_window = !in_window; latency_us = [||]; late_us = [||];
    elapsed_s; rates = Array.of_list (List.rev !rates) }
