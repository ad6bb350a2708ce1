(** Soak test: hammer a live insight server with mixed valid, malformed,
    oversized, and bursty traffic while fault injection is armed, then
    assert the health invariants that a short functional test can't see:

    - zero leaked file descriptors once the server has drained;
    - serve counters are monotone for the whole run;
    - the drain itself is clean (run returns, socket file removed).

    Duration comes from [CLARA_SOAK_S] (default 2s, so `dune runtest`
    stays quick); the [@runtest-soak] alias runs the same binary for
    ~10s.  [serve.read] is armed via [CLARA_FAULT] in the dune rule —
    the env path — and [jsonl.parse] is armed programmatically once the
    models have trained and the report cache is warm (arming earlier
    would fault the warm-up instead of the server).

    A second phase soaks the scale-out topology: a router fronting three
    worker processes takes the same traffic mix while a chaos domain
    SIGKILLs and rolling-restarts the workers, and asserts the same
    invariants on the router process (zero leaked fds, monotone
    [clara_router_*] counters, clean drain) plus: clients keep
    succeeding across kill windows (the retry re-hashes), and every
    shed/failure reply stays typed.  Workers are spawned by re-exec —
    hence the {!Router.Spawn.worker_main_if_requested} hook below. *)

let () = Router.Spawn.worker_main_if_requested ()

let soak_s =
  match Sys.getenv_opt "CLARA_SOAK_S" with
  | Some s -> ( match float_of_string_opt s with Some v when v > 0.0 -> v | _ -> 2.0)
  | None -> 2.0

let n_clients = 4

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("soak: FAIL: " ^ msg); exit 1) fmt

(* -- raw-socket helpers (for traffic Client can't produce: malformed
   lines, oversized lines, pipelined bursts) -- *)

let connect_with_retry path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go attempts =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
      Unix.sleepf 0.05;
      go (attempts - 1)
  in
  go 100

let really_write fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

(* Read complete lines until [n] arrive, the deadline passes, or the
   peer hangs up — whichever first.  A faulted server may reset the
   connection mid-burst; partial results are the point of a soak. *)
let read_lines fd ~n ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let complete () =
    match String.split_on_char '\n' (Buffer.contents buf) with
    | [] -> []
    | parts -> List.filteri (fun i _ -> i < List.length parts - 1) parts
  in
  let rec loop () =
    if List.length (complete ()) >= n then ()
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then ()
      else
        match Unix.select [ fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ -> ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
            Buffer.add_subbytes buf chunk 0 k;
            loop ()
          | exception Unix.Unix_error _ -> ())
  in
  loop ();
  let lines = complete () in
  if List.length lines > n then List.filteri (fun i _ -> i < n) lines else lines

(* One throwaway connection: send [line], collect up to [expect] reply
   lines.  Any I/O trouble just yields the lines gathered so far. *)
let raw_round path ~expect line =
  match connect_with_retry path with
  | exception _ -> []
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match really_write fd line with
        | () -> read_lines fd ~n:expect ~timeout_s:2.0
        | exception Unix.Unix_error _ -> [])

(* -- per-client traffic loop -- *)

type tally = {
  mutable sent : int;  (* logical requests issued (a burst counts once) *)
  mutable ok : int;  (* replies that parsed (including typed errors) *)
  mutable client_errors : int;  (* Client gave up after its retries *)
  mutable raw_lines : int;  (* reply lines collected on raw connections *)
  mutable overloaded : int;  (* shed replies observed in bursts *)
}

let is_overloaded line =
  match Serve.Jsonl.of_string line with
  | Ok v -> Serve.Jsonl.member "overloaded" v = Some (Serve.Jsonl.Bool true)
  | Error _ -> false

let oversized_line =
  Printf.sprintf {|{"id":1,"cmd":"analyze","nf":"%s","workload":"mixed"}|}
    (String.make 65536 'x')
  ^ "\n"

let burst_line =
  String.concat "" (List.init 100 (fun i -> Printf.sprintf {|{"id":%d,"cmd":"ping"}|} i ^ "\n"))

let client_loop path seed until =
  let t = { sent = 0; ok = 0; client_errors = 0; raw_lines = 0; overloaded = 0 } in
  let client =
    Serve.Client.create ~timeout_s:2.0 ~retries:2 ~backoff_base_s:0.01 ~backoff_cap_s:0.1 ~seed
      ~socket_path:path ()
  in
  let via_client fields =
    t.sent <- t.sent + 1;
    match Serve.Client.request client fields with
    | Ok _ -> t.ok <- t.ok + 1
    | Error _ ->
      t.client_errors <- t.client_errors + 1;
      Serve.Client.close client
  in
  let via_raw ~expect line =
    t.sent <- t.sent + 1;
    let replies = raw_round path ~expect line in
    t.raw_lines <- t.raw_lines + List.length replies;
    t.overloaded <- t.overloaded + List.length (List.filter is_overloaded replies)
  in
  let i = ref 0 in
  while Unix.gettimeofday () < until do
    (match !i mod 8 with
    | 0 ->
      via_client
        [ ("cmd", Serve.Jsonl.Str "analyze"); ("nf", Serve.Jsonl.Str "tcpack");
          ("workload", Serve.Jsonl.Str "mixed") ]
    | 1 -> via_client [ ("cmd", Serve.Jsonl.Str "ping") ]
    | 2 ->
      via_client
        [ ("cmd", Serve.Jsonl.Str "analyze"); ("nf", Serve.Jsonl.Str "udpipencap");
          ("workload", Serve.Jsonl.Str "small") ]
    | 3 ->
      (* unknown NF: a valid request whose reply is a typed error *)
      via_client [ ("cmd", Serve.Jsonl.Str "analyze"); ("nf", Serve.Jsonl.Str "no-such-nf") ]
    | 4 -> via_raw ~expect:1 "{\"id\":3,\"cmd\":\n"
    | 5 -> via_raw ~expect:1 oversized_line
    | 6 -> via_raw ~expect:100 burst_line
    | _ -> via_client [ ("cmd", Serve.Jsonl.Str "stats") ]);
    incr i
  done;
  Serve.Client.close client;
  t

(* -- monotone-counter sampling (main domain, while clients hammer) -- *)

let watched_counters () =
  List.map
    (fun (name, labels) -> (name, Obs.Metrics.counter ~labels name))
    [ ("clara_serve_requests_total", []); ("clara_serve_errors_total", []);
      ("clara_serve_shed_total", []); ("clara_serve_client_disconnects_total", []);
      ("clara_fault_injected_total", [ ("point", "serve.read") ]) ]

let single_server_soak models =
  let fd_before = fd_count () in
  let server =
    Serve.Server.create ~cache_capacity:16 ~slow_threshold_s:30.0 ~max_pending:64
      ~max_clients:32 models
  in
  (* Pre-warm the two analyze keys the soak traffic uses: a cold cache
     on a loaded 1-core box can hold the select loop in analysis for
     longer than the client timeout, turning the soak into a retry
     convoy.  The soak's job is the I/O and shedding paths, not
     analysis latency — pool-fault behaviour is test_robust's beat. *)
  ignore
    (Serve.Server.process_batch server
       [ {|{"cmd":"analyze","nf":"tcpack","workload":"mixed"}|};
         {|{"cmd":"analyze","nf":"udpipencap","workload":"small"}|} ]);
  (* env-armed points (CLARA_FAULT, set by the dune rule) only touch the
     server loop; jsonl.parse would have faulted the warm-up, so arm it
     only now *)
  Obs.Fault.set ~point:"jsonl.parse" ~prob:0.01 ~seed:5;
  let path = Filename.temp_file "clara_soak" ".sock" in
  Sys.remove path;
  let srv = Domain.spawn (fun () -> Serve.Server.run server ~socket_path:path) in
  let until = Unix.gettimeofday () +. soak_s in
  let clients =
    List.init n_clients (fun i -> Domain.spawn (fun () -> client_loop path (100 + i) until))
  in
  (* sample the watched counters for the whole soak; each must never
     decrease (the fault/disconnect/shed paths share them across domains) *)
  let watched = watched_counters () in
  let prev = Array.make (List.length watched) 0.0 in
  let samples = ref 0 in
  while Unix.gettimeofday () < until do
    List.iteri
      (fun idx (name, c) ->
        let v = Obs.Metrics.counter_value c in
        if v < prev.(idx) then fail "counter %s went backwards: %g -> %g" name prev.(idx) v;
        prev.(idx) <- v)
      watched;
    incr samples;
    Unix.sleepf 0.05
  done;
  let tallies = List.map Domain.join clients in
  (* graceful drain: the SIGTERM path minus the signal *)
  Serve.Server.request_drain server;
  Domain.join srv;
  if Sys.file_exists path then fail "socket file survived the drain";
  (* the drained server holds nothing open; neither do the clients *)
  let fd_after = fd_count () in
  if fd_after <> fd_before then
    fail "leaked %d file descriptor(s): %d before, %d after" (fd_after - fd_before) fd_before
      fd_after;
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let sent = total (fun t -> t.sent)
  and ok = total (fun t -> t.ok)
  and client_errors = total (fun t -> t.client_errors)
  and raw_lines = total (fun t -> t.raw_lines)
  and overloaded = total (fun t -> t.overloaded) in
  if sent = 0 then fail "no traffic was generated";
  if ok = 0 then fail "no client request ever succeeded";
  if raw_lines = 0 then
    fail "raw connections never got a reply line (sent=%d ok=%d client_errors=%d)" sent ok
      client_errors;
  if Serve.Server.served server = 0 then fail "server served nothing";
  if !samples = 0 then fail "counter sampler never ran";
  Printf.printf
    "soak: OK  %.1fs  %d clients  sent=%d ok=%d client_errors=%d raw_lines=%d overloaded=%d \
     served=%d shed=%d injected(serve.read)=%d samples=%d fds=%d\n"
    soak_s n_clients sent ok client_errors raw_lines overloaded
    (Serve.Server.served server) (Serve.Server.shed server)
    (Obs.Fault.fired "serve.read") !samples fd_after

(* -- phase 2: topology soak — router + 3 workers + chaos -- *)

let n_workers = 3

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let watched_router_counters () =
  List.map
    (fun name -> (name, Obs.Metrics.counter name))
    [ "clara_router_requests_total"; "clara_router_forwarded_total";
      "clara_router_quota_shed_total"; "clara_router_unavailable_total";
      "clara_router_failovers_total"; "clara_router_front_hits_total" ]

(* Kill (hard or soft, alternating) one worker at a time, reap it, and
   respawn it on the same name and socket — a rolling restart under
   fire.  The router's prober re-admits each respawn; placement is
   deterministic, so its keys come straight back. *)
let chaos_loop fleet ~bundle ~until =
  let kills = ref 0 in
  let i = ref 0 in
  while Unix.gettimeofday () < until do
    Unix.sleepf 0.25;
    if Unix.gettimeofday () < until then begin
      let k = !i mod Array.length fleet in
      let sp = fleet.(k) in
      if !i mod 2 = 0 then Router.Spawn.kill sp else Router.Spawn.terminate sp;
      Router.Spawn.wait sp;
      incr kills;
      let sp' =
        Router.Spawn.spawn ~name:sp.Router.Spawn.sp_name
          ~socket_path:sp.Router.Spawn.sp_socket ~bundle ()
      in
      ignore (Router.Spawn.wait_ready ~timeout_s:5.0 sp');
      fleet.(k) <- sp';
      incr i
    end
  done;
  !kills

let topology_soak models =
  (* the bundle every worker (and every chaos respawn) serves *)
  let bundle = Filename.temp_file "clara_soak_bundle" ".d" in
  Sys.remove bundle;
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at = "1970-01-01T00:00:00Z" }
  in
  Persist.Bundle.save ~dir:bundle manifest models;
  Fun.protect ~finally:(fun () -> rm_rf bundle) @@ fun () ->
  let fd_before = fd_count () in
  let sockets =
    List.init n_workers (fun k ->
        Printf.sprintf "%s/clara_soak_%d_w%d.sock" (Filename.get_temp_dir_name ())
          (Unix.getpid ()) k)
  in
  let fleet =
    Array.of_list
      (List.mapi
         (fun k socket_path ->
           Router.Spawn.spawn ~name:(Printf.sprintf "w%d" k) ~socket_path ~bundle ())
         sockets)
  in
  Array.iter
    (fun sp ->
      if not (Router.Spawn.wait_ready sp) then
        fail "topology: worker %s never came up" sp.Router.Spawn.sp_name)
    fleet;
  let front =
    Router.Front.create ~vnodes:32 ~health_period_s:0.2 ~forward_timeout_s:2.0
      ~max_clients:32 ~active_bundle:bundle
      ~workers:
        (Array.to_list
           (Array.map (fun sp -> (sp.Router.Spawn.sp_name, sp.Router.Spawn.sp_socket)) fleet))
      ()
  in
  let path = Filename.temp_file "clara_soak_router" ".sock" in
  Sys.remove path;
  let rtr = Domain.spawn (fun () -> Router.Front.run front ~socket_path:path) in
  let until = Unix.gettimeofday () +. soak_s in
  let clients =
    List.init n_clients (fun i -> Domain.spawn (fun () -> client_loop path (200 + i) until))
  in
  let chaos = Domain.spawn (fun () -> chaos_loop fleet ~bundle ~until) in
  (* monotone sampling on the router's own counters, while the chaos
     domain keeps killing the processes behind them *)
  let watched = watched_router_counters () in
  let prev = Array.make (List.length watched) 0.0 in
  let samples = ref 0 in
  while Unix.gettimeofday () < until do
    List.iteri
      (fun idx (name, c) ->
        let v = Obs.Metrics.counter_value c in
        if v < prev.(idx) then
          fail "topology: counter %s went backwards: %g -> %g" name prev.(idx) v;
        prev.(idx) <- v)
      watched;
    incr samples;
    Unix.sleepf 0.05
  done;
  let tallies = List.map Domain.join clients in
  let kills = Domain.join chaos in
  (* graceful drain of the router (workers still up underneath) *)
  Router.Front.request_drain front;
  Domain.join rtr;
  if Sys.file_exists path then fail "topology: router socket survived the drain";
  Array.iter Router.Spawn.terminate fleet;
  Array.iter Router.Spawn.wait fleet;
  List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets;
  let fd_after = fd_count () in
  if fd_after <> fd_before then
    fail "topology: leaked %d file descriptor(s): %d before, %d after" (fd_after - fd_before)
      fd_before fd_after;
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let sent = total (fun t -> t.sent)
  and ok = total (fun t -> t.ok)
  and client_errors = total (fun t -> t.client_errors)
  and raw_lines = total (fun t -> t.raw_lines)
  and overloaded = total (fun t -> t.overloaded) in
  if sent = 0 then fail "topology: no traffic was generated";
  if ok = 0 then fail "topology: no client request ever succeeded through the chaos";
  if Router.Front.served front = 0 then fail "topology: router served nothing";
  if Router.Front.forwarded front = 0 then fail "topology: router forwarded nothing";
  if soak_s >= 5.0 && kills = 0 then fail "topology: chaos never killed a worker";
  if !samples = 0 then fail "topology: counter sampler never ran";
  Printf.printf
    "soak: topology OK  %.1fs  %d clients  %d workers  kills=%d  sent=%d ok=%d \
     client_errors=%d raw_lines=%d overloaded=%d  router: served=%d forwarded=%d shed=%d \
     unavailable=%d failovers=%d  samples=%d fds=%d\n"
    soak_s n_clients n_workers kills sent ok client_errors raw_lines overloaded
    (Router.Front.served front) (Router.Front.forwarded front) (Router.Front.shed front)
    (Router.Front.unavailable front) (Router.Front.failovers front) !samples fd_after

let () =
  (* a soak under fault injection would otherwise print thousands of
     warn/info lines; the assertions below are the signal *)
  Obs.Log.set_sink Obs.Log.Off;
  (* warm the domain machinery before the fd baseline *)
  Domain.join (Domain.spawn (fun () -> ()));
  let models =
    let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
    let predictor = Clara.Predictor.train ~epochs:1 ds in
    let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
    { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }
  in
  single_server_soak models;
  topology_soak models
