(* One serving benchmark for Clara.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the root of a built checkout (see run.sh).  Each run trains a
   bundle once (not timed), brings the topology up [setup_reps] times
   (set-up time is the median), then alternates an open-loop phase
   (Poisson arrivals at the workload's fixed rate, latency from each
   request's due time) with a closed-loop phase (one connection, fixed
   pipeline depth: capacity).  Replies are checked against an in-process
   oracle after the clock stops.  With --trace 1 the same run also scrapes
   the live topology's counters and replays the stream in-process through
   each layer's public functions, reporting the per-layer ledger instead
   of the end-to-end metrics.  The last stdout line is the JSON result.

   The host is a small shared machine whose speed drifts: its stalls only
   ever add latency and remove capacity.  So the gated figures are read
   from the quieter parts of a run -- p50_us is the lower quartile, over
   windows of [window] requests, of each window's median, and
   throughput_rps the upper quartile of per-window completion rates --
   to measure the program rather than the scheduler.  p90_us and p99_us
   (pooled over the whole open-loop sample) swing with the host far more
   than any bound allows; they are printed and recorded, not gated. *)

let clara = "_build/default/bin/clara_cli.exe"
let setup_reps = 7
let pipeline_depth = 32
let window = 1000

(* The open- and closed-loop phases alternate in this many rounds, so
   both sample the whole run rather than one half of it each. *)
let rounds = 5

(* A run whose generator sent later than this at p99 did not offer the
   load it claims: it is reported invalid rather than passing. *)
let late_p99_bound_us = 10_000.0

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* -- run record -- *)

let git_commit () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    match String.trim (read_file (".git/" ^ String.sub head 5 (String.length head - 5))) with
    | c -> c
    | exception Sys_error _ -> "unknown")
  | head -> head

(* Digest of the program's sources, which names the code measured even
   in a checkout that is not a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib" @ files "bin"))))

(* Effective pool width each server logged at start ("jobs" on
   serve.start). *)
let logged_jobs log =
  match read_file log with
  | exception Sys_error _ -> []
  | text ->
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           if Topo.contains l "serve.start" then
             match Serve.Jsonl.of_string l with
             | Ok j -> Option.map int_of_float (Serve.Jsonl.num_member "jobs" j)
             | Error _ -> None
           else None)

(* -- set-up -- *)

type setup = { total_s : float; spawn_s : float; warm_s : float }

let bring_up ~bundle ~dir ~(wl : Gen.workload) ~wire ~primed =
  let t0 = Unix.gettimeofday () in
  let topo = Topo.launch ~clara ~bundle ~dir ~routed:wl.routed in
  if not (Topo.wait_ready topo) then
    die "the %s topology never came up (see %s)" wl.name topo.Topo.log;
  let t1 = Unix.gettimeofday () in
  let got = Load.burst ~socket:topo.Topo.socket ~wire ~replies:primed ~keys:wl.prime in
  if got <> Array.length wl.prime then die "priming got %d of %d replies" got (Array.length wl.prime);
  let t2 = Unix.gettimeofday () in
  (topo, { total_s = t2 -. t0; spawn_s = t1 -. t0; warm_s = t2 -. t1 })

(* -- the timed phases -- *)

let merge (rs : Load.result list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let cat f = Array.concat (List.map f rs) in
  { Load.sent = sum (fun r -> r.Load.sent); received = sum (fun r -> r.Load.received);
    in_window = sum (fun r -> r.Load.in_window); latency_us = cat (fun r -> r.Load.latency_us);
    late_us = cat (fun r -> r.Load.late_us);
    elapsed_s = List.fold_left (fun acc r -> acc +. r.Load.elapsed_s) 0.0 rs;
    rates = cat (fun r -> r.Load.rates) }

(* [rounds] alternations of open loop and closed loop; round r sends the
   arrivals the schedule puts in the r-th slice of the open-loop time,
   and the closed loop continues its walk over the keys. *)
let measure ~(wl : Gen.workload) ~wire ~socket ~replies =
  let d = wl.open_s /. float_of_int rounds in
  let walked = ref 0 in
  let round r =
    let lo = float_of_int r *. d in
    let idx =
      List.filter (fun i -> wl.open_at.(i) >= lo && wl.open_at.(i) < lo +. d)
        (List.init (Array.length wl.open_at) Fun.id)
      |> Array.of_list
    in
    let op =
      Load.open_loop ~socket ~wire ~replies
        ~keys:(Array.map (fun i -> wl.open_keys.(i)) idx)
        ~at:(Array.map (fun i -> wl.open_at.(i) -. lo) idx)
    in
    let cl =
      Load.closed_loop ~socket ~wire ~replies ~keys:wl.closed_keys ~first:!walked
        ~depth:pipeline_depth ~duration_s:(wl.closed_s /. float_of_int rounds)
        ~window_s:wl.closed_window_s
    in
    walked := !walked + cl.Load.sent;
    (op, cl)
  in
  let both = List.init rounds round in
  (merge (List.map fst both), merge (List.map snd both))

(* -- output -- *)

type metric = { name : string; value : float; unit : string; samples : int; gated : bool }

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct attempted
    failed
    (String.concat ","
       (List.filter_map
          (fun m ->
            if m.gated then
              Some
                (Printf.sprintf {|"%s":{"value":%.9g,"unit":"%s"}|} m.name
                   (if Float.is_finite m.value then m.value else 0.0)
                   m.unit)
            else None)
          metrics))

let json_record fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let quantile a p = if Array.length a = 0 then nan else Stats.percentile (Stats.sorted_copy a) p

let main ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists clara) then die "%s is missing: run from a built checkout" clara;
  let wl =
    match
      Gen.make workload ~seed ~corpus:(Serve.Server.corpus_names ()) ~seconds:(float_of_int seconds)
    with
    | Some wl -> wl
    | None -> die "unknown workload %S (one of: %s)" workload (String.concat ", " Gen.names)
  in
  let wire = Array.map (fun l -> l ^ "\n") wl.lines in
  Topo.pin_generator ();
  ignore (Topo.set_timer_slack_ns 1);
  let dir = Printf.sprintf ".perfbench_run/%s-s%d-p%d" workload seed (Unix.getpid ()) in
  mkdir_p dir;
  let bundle = Filename.concat dir "bundle" in
  let train_log = Filename.concat dir "train.log" in
  (match Unix.waitpid [] (Topo.spawn ~clara ~args:[ "train"; "--save"; bundle ] ~log:train_log) with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "training the bundle failed (see %s)" train_log);
  let primed = Load.replies () in
  let setups = ref [] in
  let rec setup k =
    let topo, s = bring_up ~bundle ~dir ~wl ~wire ~primed in
    setups := s :: !setups;
    if k < setup_reps then (Topo.stop topo; setup (k + 1)) else topo
  in
  let topo = setup 1 in
  let setup_med f = Stats.median (Array.of_list (List.map f !setups)) in
  let phase = Load.replies () in
  let op, cl = measure ~wl ~wire ~socket:topo.Topo.socket ~replies:phase in
  let pids = Topo.pids topo in
  let rss = List.fold_left (fun acc p -> acc +. Option.value (Topo.vm_hwm_mb p) ~default:0.0) 0.0 pids in
  let jobs = logged_jobs topo.Topo.log in
  let live = if trace then Ledger.scrape topo ~replies:phase else [] in
  let hop = if trace then Ledger.hop_probe ~clara ~bundle ~dir ~wl ~wire ~topo else [] in
  Topo.stop topo;
  (* -- everything below runs after the clock stopped -- *)
  let models =
    match Persist.Bundle.load ~dir:bundle with
    | Ok b -> b.Persist.Bundle.models
    | Error e -> die "cannot load %s: %s" bundle (Persist.Wire.error_to_string e)
  in
  let v_prime, v_phase =
    match Check.run ~models ~wl [ primed; phase ] with [ a; b ] -> (a, b) | _ -> assert false
  in
  List.iter (fun n -> prerr_endline ("perfbench: mismatch: " ^ n)) (v_prime.Check.notes @ v_phase.Check.notes);
  let attempted = op.Load.sent + cl.Load.sent in
  let missing = attempted - op.Load.received - cl.Load.received in
  let failed = missing + v_phase.Check.bad in
  let n_lat = Array.length op.Load.latency_us in
  let late p = quantile op.Load.late_us p in
  let enough = Stats.supported ~n:n_lat 99.0 in
  let valid = late 99.0 <= late_p99_bound_us in
  if not enough then prerr_endline (Printf.sprintf "perfbench: only %d open-loop samples" n_lat);
  if not valid then
    prerr_endline
      (Printf.sprintf "perfbench: invalid run: generator late by %.0f us at p99 (bound %.0f)"
         (late 99.0) late_p99_bound_us);
  let ledger, stage_mismatches =
    if trace then Ledger.in_process ~bundle ~models ~wl ~dir else ([], 0)
  in
  if stage_mismatches > 0 then
    prerr_endline
      (Printf.sprintf "perfbench: %d stage replays disagree with Pipeline.analyze_compiled"
         stage_mismatches);
  let correct = v_prime.Check.bad + v_phase.Check.bad = 0 && enough && valid && stage_mismatches = 0 in
  let pooled p = quantile op.Load.latency_us p in
  let fail_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  let metrics =
    if not trace then
      [ { name = "setup_s"; value = setup_med (fun s -> s.total_s); unit = "s";
          samples = setup_reps; gated = true };
        { name = "p50_us";
          value = quantile (Stats.windows ~size:window (fun w -> Stats.percentile w 50.0) op.Load.latency_us) 25.0;
          unit = "us"; samples = n_lat; gated = true };
        { name = "p90_us"; value = pooled 90.0; unit = "us"; samples = n_lat; gated = false };
        { name = "p99_us"; value = pooled 99.0; unit = "us"; samples = n_lat; gated = false };
        { name = "throughput_rps"; value = quantile cl.Load.rates 75.0; unit = "1/s";
          samples = cl.Load.in_window; gated = true };
        { name = "ok_ratio"; value = 1.0 -. fail_ratio; unit = "ratio"; samples = attempted;
          gated = true };
        { name = "fail_ratio"; value = fail_ratio; unit = "ratio"; samples = attempted;
          gated = false };
        { name = "peak_rss_mb"; value = rss; unit = "MiB"; samples = List.length pids; gated = true } ]
    else begin
      let rows =
        live @ hop
        @ [ ("setup.spawn_s", setup_med (fun s -> s.spawn_s), "s");
            ("setup.warm_s", setup_med (fun s -> s.warm_s), "s");
            ("gen.late_p99_us", late 99.0, "us");
            ("gen.late_max_us", late 100.0, "us") ]
        @ ledger
      in
      Ledger.write ~dir rows;
      List.map (fun (name, value, unit) -> { name; value; unit; samples = 0; gated = true }) rows
    end
  in
  let num x = Printf.sprintf "%.6g" x and int = string_of_int and str s = Printf.sprintf "%S" s in
  let record =
    json_record
      [ ("workload", str workload); ("seed", int seed); ("seconds", int seconds);
        ("trace", string_of_bool trace); ("nproc", int (Array.length (Lazy.force Topo.all_cpus)));
        ("sut_cpus", "[" ^ String.concat "," (Array.to_list (Array.map int (Topo.sut_cpus ()))) ^ "]");
        ("worker_jobs", "[" ^ String.concat "," (List.map int jobs) ^ "]");
        ("commit", str (git_commit ())); ("source_md5", str (source_digest ()));
        ("open_rate_rps", num wl.rate); ("open_s", num wl.open_s); ("closed_s", num wl.closed_s);
        ("rounds", int rounds); ("pipeline_depth", int pipeline_depth);
        ("setup_reps_s", "[" ^ String.concat "," (List.rev_map (fun s -> num s.total_s) !setups) ^ "]"); ("open_samples", int n_lat); ("latency_window", int window);
        ("latency_windows", int (if n_lat = 0 then 0 else max 1 (n_lat / window)));
        ("p50_pooled_us", num (pooled 50.0));
        ("closed_windows", int (Array.length cl.Load.rates));
        ("closed_mean_rps", num (float_of_int cl.Load.in_window /. cl.Load.elapsed_s));
        ("attempted", int attempted); ("failed", int failed); ("missing", int missing);
        ("fail_ratio", num fail_ratio);
        ("distinct_replies_checked", int (v_prime.Check.checked + v_phase.Check.checked));
        ("late_p50_us", num (late 50.0)); ("late_p99_us", num (late 99.0));
        ("late_max_us", num (late 100.0)); ("valid", string_of_bool valid) ]
  in
  Out_channel.with_open_bin (Filename.concat dir "record.json") (fun oc ->
      output_string oc (record ^ "\n"));
  rm_rf bundle;
  print_endline ("# run " ^ record);
  List.iter
    (fun m ->
      Printf.printf "# %-26s %14.4f %-6s%s%s\n" m.name m.value m.unit
        (if m.samples > 0 then Printf.sprintf " n=%d" m.samples else "")
        (if m.gated then "" else " (reported, not gated)"))
    metrics;
  (* A figure that could not be measured fails the run (and prints as 0). *)
  let correct = correct && List.for_all (fun m -> (not m.gated) || Float.is_finite m.value) metrics in
  print_endline (json_result ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Gen.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or per-layer ledger") ]
    (fun a -> die "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !workload = "" || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    die "need --workload, --seed >= 0, --seconds >= 1 and --trace 0|1";
  at_exit Topo.stop_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigterm; Sys.sigint ];
  try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  with e -> die "run aborted: %s" (Printexc.to_string e)
