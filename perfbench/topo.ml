(* The system under test, launched as the real `clara serve` / `clara
   router` binaries in processes of their own.

   Why separate processes: with the router running as a Domain inside the
   load generator's process (as `bench/main.exe router` runs it), routed
   p99 at 5k req/s measured 12-15 ms, because the generator and the
   router shared one OCaml runtime and its stop-the-world minor GCs.  With
   the router in its own process it fell to 0.7-1.0 ms.  The generator
   here holds no models and shares no runtime with what it measures. *)

type t = {
  pid : int;  (** the server, or the router *)
  socket : string;
  routed : bool;
  workers : (string * string) list;  (** router workers: (name, socket) *)
  log : string;
}

let workers_n = 2
let vnodes = 64

let now = Unix.gettimeofday

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* -- blocking line I/O for control requests -- *)

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let send_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* One reply line, or None on EOF / timeout. *)
let read_line ?(timeout_s = 30.0) fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 65536 in
  let deadline = now () +. timeout_s in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          let s = Buffer.contents buf in
          match String.index_opt s '\n' with
          | Some i -> Some (String.sub s 0 i)
          | None -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let request ?timeout_s socket line =
  match connect socket with
  | None -> None
  | Some fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    match send_all fd (line ^ "\n") with
    | () -> read_line ?timeout_s fd
    | exception Unix.Unix_error _ -> None

(* -- CPUs and timers --

   The generator keeps the last CPU it may run on; everything it launches
   runs on the others.  Left to the scheduler, a server would sometimes
   share the generator's CPU and sometimes not, and its latency would
   switch between two levels from run to run. *)

external set_timer_slack_ns : int -> bool = "perfbench_set_timer_slack_ns"
external get_affinity : unit -> int array = "perfbench_get_affinity"
external set_affinity : int array -> bool = "perfbench_set_affinity"

(* Every CPU the benchmark may use, read before it pins itself. *)
let all_cpus = lazy (get_affinity ())

(* CPUs of the system under test (all of them on a 1-CPU machine). *)
let sut_cpus () =
  let all = Lazy.force all_cpus in
  if Array.length all >= 2 then Array.sub all 0 (Array.length all - 1) else all

let pin_generator () =
  let all = Lazy.force all_cpus in
  if Array.length all >= 2 then ignore (set_affinity [| all.(Array.length all - 1) |])

(* -- launch -- *)

let spawn ~clara ~args ~log =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  (* The child inherits the affinity in force when it is created. *)
  ignore (set_affinity (sut_cpus ()));
  let pid = Unix.create_process clara (Array.of_list (clara :: args)) devnull out out in
  pin_generator ();
  Unix.close devnull;
  Unix.close out;
  pid

(* Every launched topology not yet stopped, so a run that fails or is
   signalled part way still stops what it started. *)
let live = ref []

let launch ~clara ~bundle ~dir ~routed =
  let socket = Filename.concat dir (if routed then "r.sock" else "s.sock") in
  let log = Filename.concat dir (if routed then "router.log" else "serve.log") in
  let args =
    if routed then
      [ "router"; "--model"; bundle; "--socket"; socket; "--workers"; string_of_int workers_n;
        "--vnodes"; string_of_int vnodes; "--log"; "stderr" ]
    else [ "serve"; "--model"; bundle; "--socket"; socket; "--log"; "stderr" ]
  in
  let pid = spawn ~clara ~args ~log in
  let workers =
    if routed then List.init workers_n (fun k -> (Printf.sprintf "w%d" k, Printf.sprintf "%s.w%d" socket k))
    else []
  in
  let t = { pid; socket; routed; workers; log } in
  live := t :: !live;
  t

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* A router opens its socket only once every worker answers, so one ping
   through the front door means the whole topology is up. *)
let wait_ready ?(timeout_s = 60.0) t =
  let deadline = now () +. timeout_s in
  let rec go () =
    if now () > deadline || not (alive t.pid) then false
    else
      match request ~timeout_s:5.0 t.socket {|{"cmd":"ping","id":0}|} with
      | Some reply when contains reply {|"pong":true|} -> true
      | _ ->
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* -- process facts -- *)

let member_num reply key =
  match Serve.Jsonl.of_string reply with
  | Ok j -> Serve.Jsonl.num_member key j
  | Error _ -> None

let worker_pids t =
  List.filter_map
    (fun (_, socket) ->
      Option.bind (request socket {|{"cmd":"health","id":0}|}) (fun r ->
          Option.map int_of_float (member_num r "pid")))
    t.workers

let pids t = t.pid :: worker_pids t

(* Peak resident set (VmHWM) of one process, in MiB. *)
let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              Some (float_of_int kb /. 1024.0))
        else go ()
    in
    go ()

(* -- stop -- *)

let wait_exit pid ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then false
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill_quiet signal pid = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Ask politely (shutdown drains and, on a router, stops its workers),
   then insist.  Worker pids are read first so a router that has to be
   killed leaves no orphans. *)
let stop t =
  if List.memq t !live then begin
    live := List.filter (fun x -> x != t) !live;
    let workers = if alive t.pid then worker_pids t else [] in
    ignore (request ~timeout_s:5.0 t.socket {|{"cmd":"shutdown","id":0}|});
    if not (wait_exit t.pid ~timeout_s:10.0) then begin
      kill_quiet Sys.sigterm t.pid;
      if not (wait_exit t.pid ~timeout_s:5.0) then begin
        kill_quiet Sys.sigkill t.pid;
        ignore (wait_exit t.pid ~timeout_s:5.0)
      end
    end;
    (* Workers are the router's children: it reaps them; only ones that
       somehow outlived it are killed here. *)
    List.iter
      (fun pid ->
        if Sys.file_exists (Printf.sprintf "/proc/%d" pid) then kill_quiet Sys.sigkill pid)
      workers
  end

let stop_all () = List.iter stop !live
