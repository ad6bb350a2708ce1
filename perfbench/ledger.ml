(* The per-layer ledger of a traced run.

   Two parts, both outside the timed phases: counters scraped from the
   live topology (stats, metrics, health), and an in-process replay of the
   workload's exact seeded stream through each layer's public functions,
   timed by the benchmark's own spans (Spans), not by the program's
   internal instrumentation. *)

type row = string * float * string

(* Which end-to-end metric, on which workload, each layer metric should
   move.  Written into the ledger file beside the values. *)
let moves =
  let router = "p50_us and throughput_rps on hot-routed; none on hot-direct" in
  let router_counts = "ok_ratio on hot-routed; none on hot-direct" in
  let fast = "p50_us and throughput_rps on hot-direct and hot-routed" in
  let cache = "p50_us and throughput_rps on cold-p4lite" in
  let slow = "p50_us, p99_us and throughput_rps on cold-p4lite, setup_s on the hot workloads; not hot p50_us" in
  let setup = "setup_s on every workload" in
  let validity = "none: checks the validity of a run" in
  [ ("router.hop_us", router); ("router.target_us", router); ("router.chash_lookup_ns", router);
    ("router.forwarded", router_counts); ("router.unavailable", router_counts);
    ("router.shed", router_counts); ("router.failovers", router_counts);
    ("router.worker_skew", router);
    ("fastpath.scan_ns", fast); ("fastpath.probe_ns", fast); ("fastpath.render_ns", fast);
    ("fastpath.ping_rtt_us", fast); ("fastpath.share", fast);
    ("fastpath.hit_ratio", cache); ("fastpath.installs", cache); ("fastpath.evictions", cache);
    ("serve.fast_hit_us", "p50_us on hot-direct and hot-routed");
    ("serve.slow_hit_us", "p50_us and p99_us on cold-p4lite");
    ("serve.miss_us", "p50_us and p99_us on cold-p4lite, setup_s on the hot workloads");
    ("serve.jsonl_parse_us", "p50_us and p99_us on cold-p4lite");
    ("serve.requests", validity); ("serve.errors", "ok_ratio on every workload");
    ("pool.utilization", "throughput_rps on cold-p4lite");
    ("nf_lang.p4lite_compile_us", slow); ("core.prepare_us", slow); ("core.predict_us", slow);
    ("core.algo_detect_us", slow); ("nicsim.port_us", slow); ("nf_frontend.lower_us", slow);
    ("nicsim.nfcc_us", slow); ("workload.generate_us", slow); ("nf_lang.interp_us", slow);
    ("core.scaleout_us", slow); ("core.placement_us", slow); ("core.coalesce_us", slow);
    ("core.render_us", slow); ("core.analyze_us", slow);
    ("core.stage_coverage", validity);
    ("persist.bundle_load_s", setup); ("setup.spawn_s", setup); ("setup.warm_s", setup);
    ("gen.late_p99_us", validity); ("gen.late_max_us", validity);
    ("trace.overhead_pct", validity) ]

let now = Unix.gettimeofday

let json_num reply key =
  match Serve.Jsonl.of_string reply with
  | Ok j -> Serve.Jsonl.num_member key j
  | Error _ -> None

(* Sum of every sample of the named Prometheus series (all label sets). *)
let prom_sum text name =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc l ->
         let n = String.length name in
         if String.length l > n && String.sub l 0 n = name && (l.[n] = ' ' || l.[n] = '{') then
           match String.rindex_opt l ' ' with
           | Some i -> (
             match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
             | Some v -> acc +. v
             | None -> acc)
           | None -> acc
         else acc)
       0.0

(* -- counters from the live topology -- *)

let scrape (topo : Topo.t) ~(replies : Load.replies) =
  let servers = if topo.Topo.routed then List.map snd topo.Topo.workers else [ topo.Topo.socket ] in
  let stat key =
    List.fold_left
      (fun acc s ->
        match Topo.request s {|{"cmd":"stats","id":0}|} with
        | Some r -> acc +. Option.value (json_num r key) ~default:0.0
        | None -> acc)
      0.0 servers
  in
  let metrics_text =
    List.filter_map
      (fun s ->
        Option.bind (Topo.request s {|{"cmd":"metrics","id":0}|}) (fun r ->
            match Serve.Jsonl.of_string r with
            | Ok j -> Serve.Jsonl.str_member "metrics" j
            | Error _ -> None))
      servers
  in
  let prom name = List.fold_left (fun acc t -> acc +. prom_sum t name) 0.0 metrics_text in
  let hits = stat "cache_hits" and misses = stat "cache_misses" in
  let busy = prom "clara_pool_busy_seconds_total" and idle = prom "clara_pool_idle_seconds_total" in
  let health =
    if topo.Topo.routed then Topo.request topo.Topo.socket {|{"cmd":"health","id":0}|} else None
  in
  let h key = match health with Some r -> Option.value (json_num r key) ~default:0.0 | None -> 0.0 in
  let skew =
    match Option.map Serve.Jsonl.of_string health with
    | Some (Ok j) -> (
      match Serve.Jsonl.member "workers" j with
      | Some (Serve.Jsonl.Arr ws) ->
        let f = List.filter_map (Serve.Jsonl.num_member "forwarded") ws in
        let mean = List.fold_left ( +. ) 0.0 f /. float_of_int (max 1 (List.length f)) in
        if mean > 0.0 then List.fold_left Float.max 0.0 f /. mean else 0.0
      | _ -> 0.0)
    | _ -> 0.0
  in
  let fast, total =
    Hashtbl.fold
      (fun _ (v : Load.variant) (fast, total) ->
        ((if Topo.contains v.sample {|"path":"fast"|} then fast + v.count else fast), total + v.count))
      replies (0, 0)
  in
  [ ("router.forwarded", h "forwarded", "count"); ("router.unavailable", h "unavailable", "count");
    ("router.shed", h "shed", "count"); ("router.failovers", h "failovers", "count");
    ("router.worker_skew", skew, "ratio");
    ("fastpath.share", float_of_int fast /. float_of_int (max 1 total), "ratio");
    ("fastpath.hit_ratio", hits /. Float.max 1.0 (hits +. misses), "ratio");
    ("fastpath.installs", stat "cache_installs", "count");
    ("fastpath.evictions", stat "cache_evictions", "count");
    ("serve.requests", prom "clara_serve_requests_total", "count");
    ("serve.errors", prom "clara_serve_errors_total", "count");
    ("pool.utilization", busy /. Float.max 1e-9 (busy +. idle), "ratio") ]

(* -- sequential round trips: the router hop and the socket floor -- *)

let rtt fd line =
  let t = now () in
  Topo.send_all fd line;
  match Topo.read_line ~timeout_s:10.0 fd with
  | Some _ -> Some ((now () -. t) *. 1e6)
  | None -> None

let median_of xs = Stats.median (Array.of_list xs)

let with_conn socket f =
  match Topo.connect socket with
  | None -> failwith ("cannot connect to " ^ socket)
  | Some fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let hop_rounds = 20

(* Warm round trips of the same lines through the router and straight to
   the worker that owns them; a router topology is launched for the
   probe when the workload runs without one. *)
let hop_probe ~clara ~bundle ~dir ~(wl : Gen.workload) ~wire ~(topo : Topo.t) =
  let own = not topo.Topo.routed in
  let rt =
    if not own then topo
    else begin
      let d = Filename.concat dir "hop" in
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      let t = Topo.launch ~clara ~bundle ~dir:d ~routed:true in
      if not (Topo.wait_ready t) then failwith "hop-probe router never came up";
      t
    end
  in
  Fun.protect ~finally:(fun () -> if own then Topo.stop rt) @@ fun () ->
  let keys =
    List.filter (fun k -> wl.Gen.targets.(k) <> Gen.Error_line) (List.init (Array.length wl.Gen.lines) Fun.id)
    |> List.filteri (fun i _ -> i < 32)
  in
  let front = Router.Front.create ~vnodes:Topo.vnodes ~workers:rt.Topo.workers () in
  let owner k =
    match Router.Front.target front wl.Gen.lines.(k) with
    | Some { Router.Front.rt_worker = Some w; _ } -> List.assoc w rt.Topo.workers
    | _ -> failwith "hop probe: no owner for a line"
  in
  let routed = ref [] and direct = ref [] in
  with_conn rt.Topo.socket (fun rfd ->
      List.iter (fun k -> ignore (rtt rfd wire.(k))) keys;
      for _ = 1 to hop_rounds do
        List.iter (fun k -> Option.iter (fun x -> routed := x :: !routed) (rtt rfd wire.(k))) keys;
        List.iter
          (fun (_, socket) ->
            with_conn socket (fun wfd ->
                List.iter
                  (fun k ->
                    if owner k = socket then
                      Option.iter (fun x -> direct := x :: !direct) (rtt wfd wire.(k)))
                  keys))
          rt.Topo.workers
      done);
  let ping =
    with_conn (snd (List.hd rt.Topo.workers)) (fun fd ->
        List.filter_map (fun _ -> rtt fd "{\"cmd\":\"ping\",\"id\":1}\n") (List.init 500 Fun.id))
  in
  [ ("router.hop_us", median_of !routed -. median_of !direct, "us");
    ("fastpath.ping_rtt_us", median_of ping, "us") ]

(* -- in-process replay -- *)

let spec = Serve.Server.mixed_spec

(* The server's flow-cache key for a line's target. *)
let cache_key (target : Gen.target) =
  match target with
  | Gen.Nf nf -> Some (nf ^ "|mixed")
  | Gen.P4 p ->
    let elt = Nf_lang.P4lite.compile p in
    Some (Printf.sprintf "p4lite:%08lx|mixed" (Persist.Wire.crc32 (Nf_lang.Pp.to_string elt)))
  | Gen.Error_line -> None

(* Mean cost per item, in the given scale, of [f] over [items], run in
   one timed block ([reps] passes) so the clock's granularity washes out. *)
let per_item ?(reps = 1) ~scale items f =
  let n = Array.length items in
  if n = 0 then 0.0
  else begin
    let t = now () in
    for _ = 1 to reps do
      Array.iter f items
    done;
    (now () -. t) *. scale /. float_of_int (n * reps)
  end

(* The slow path in Pipeline.analyze_with order, one span per stage, on
   the compiled models' public entry points.  Returns the insights so the
   caller can check them against Pipeline.analyze_compiled. *)
let stages sp ~(models : Clara.Pipeline.models) ~predictor ~scaleout elt =
  let r name f = Spans.record sp name f in
  let prep = r "core.prepare" (fun () -> Clara.Prepare.prepare models.predictor.Clara.Predictor.vocab elt) in
  let per_block = r "core.predict" (fun () -> Clara.Predictor.predict_element_compiled predictor elt) in
  let accel = r "core.algo_detect" (fun () -> Clara.Algo_id.detect models.algo elt) in
  let ported =
    r "nicsim.port" (fun () ->
        let ir = r "nf_frontend.lower" (fun () -> Nf_frontend.Lower.lower_element elt) in
        let compiled =
          r "nicsim.nfcc" (fun () ->
              Nicsim.Nfcc.compile
                ~config:(Nicsim.Accel.accel_config Nicsim.Nic.naive_port.Nicsim.Nic.accel_apis)
                ir)
        in
        let packets = r "workload.generate" (fun () -> Workload.generate spec) in
        let profile =
          r "nf_lang.interp" (fun () ->
              Nf_lang.Interp.run (Nf_lang.Interp.create ~mode:Nf_lang.State.Nic elt) packets)
        in
        let placement = Nicsim.Mem.naive_placement (Nicsim.Nic.state_names elt) in
        let demand =
          Nicsim.Perf.demand_of ~packs:Nicsim.Nic.naive_port.Nicsim.Nic.packs ~placement ~spec elt
            compiled profile
        in
        { Nicsim.Nic.elt; spec; config = Nicsim.Nic.naive_port; ir; compiled; profile; demand })
  in
  let suggested_cores =
    r "core.scaleout" (fun () ->
        Option.map (fun s -> Clara.Scaleout.suggest_compiled s ported.Nicsim.Nic.demand) scaleout)
  in
  let placement =
    r "core.placement" (fun () ->
        if elt.Nf_lang.Ast.state = [] then [] else Clara.Placement.solve elt ported)
  in
  let packs = r "core.coalesce" (fun () -> Clara.Coalesce.suggest elt ported.Nicsim.Nic.profile) in
  { Clara.Insights.nf_name = elt.Nf_lang.Ast.name;
    workload = spec.Workload.name;
    predicted_compute = List.fold_left (fun acc (_, c, _) -> acc +. c) 0.0 per_block;
    predicted_memory = float_of_int (Clara.Prepare.memory_estimate prep);
    api_calls = prep.Clara.Prepare.api_set;
    accel = List.map (fun (component, algorithm) -> { Clara.Insights.component; algorithm }) accel;
    suggested_cores; placement; packs }

let stage_names =
  [ "nf_lang.p4lite_compile"; "core.prepare"; "core.predict"; "core.algo_detect"; "nicsim.port";
    "nf_frontend.lower"; "nicsim.nfcc"; "workload.generate"; "nf_lang.interp"; "core.scaleout";
    "core.placement"; "core.coalesce"; "core.render"; "core.analyze" ]

let overhead_rounds = 5
let overhead_calls = 5000

let in_process ~bundle ~models ~(wl : Gen.workload) ~dir =
  let sp = Spans.create () in
  let load_s =
    median_of
      (List.init 3 (fun _ ->
           let t = now () in
           ignore (Persist.Bundle.load ~dir:bundle);
           now () -. t))
  in
  let stream = Array.append wl.Gen.prime wl.Gen.open_keys in
  (* Slow-path stages on the stream's distinct analyzable lines. *)
  let distinct =
    let seen = Hashtbl.create 64 in
    Array.to_list stream
    |> List.filter (fun k ->
           wl.Gen.targets.(k) <> Gen.Error_line && not (Hashtbl.mem seen k)
           && (Hashtbl.add seen k (); true))
  in
  let compiled = Clara.Pipeline.compile models in
  let predictor = Clara.Predictor.compile models.Clara.Pipeline.predictor in
  let scaleout = Option.map Clara.Scaleout.compile models.Clara.Pipeline.scaleout in
  let mismatched = ref 0 in
  let entries = Hashtbl.create 64 in
  List.iter
    (fun k ->
      let elt =
        match wl.Gen.targets.(k) with
        | Gen.Nf nf -> Nf_lang.Corpus.find nf
        | Gen.P4 p -> Spans.record sp ~req:k "nf_lang.p4lite_compile" (fun () -> Nf_lang.P4lite.compile p)
        | Gen.Error_line -> assert false
      in
      let whole =
        Spans.record sp ~req:k "core.analyze" (fun () -> Clara.Pipeline.analyze_compiled compiled elt spec)
      in
      let mine =
        Spans.record sp ~req:k "core.stages" (fun () -> stages sp ~models ~predictor ~scaleout elt)
      in
      let entry =
        Spans.record sp ~req:k "core.render" (fun () ->
            let report = Clara.Insights.render mine in
            Fastpath.Entry.make ~nf:elt.Nf_lang.Ast.name ~workload:"mixed" ~report ())
      in
      if Clara.Insights.render whole <> Fastpath.Entry.report entry then incr mismatched;
      Option.iter (fun key -> Hashtbl.replace entries k (key, entry)) (cache_key wl.Gen.targets.(k)))
    distinct;
  (* Whole requests through the server's public entry point. *)
  let server = Serve.Server.create models in
  let classes = Hashtbl.create 4 in
  let handle line =
    let t = now () in
    let reply = Serve.Server.handle_request server line in
    let dt = (now () -. t) *. 1e6 in
    let cls =
      if Topo.contains reply {|"path":"fast"|} then Some "fast"
      else if Topo.contains reply {|"cached":true|} then Some "slow_hit"
      else if Topo.contains reply {|"ok":true|} then Some "miss"
      else None
    in
    Option.iter (fun c -> Hashtbl.add classes c dt) cls
  in
  Array.iteri
    (fun i k -> Spans.record sp ~req:i "serve.handle_request" (fun () -> handle wl.Gen.lines.(k)))
    stream;
  (* Two fixed lines, each sent twice, keep every request class measured
     on every workload. *)
  let probe_program = Gen.p4lite_program (Gen.rng ~seed:0 ~salt:9) ~index:900001 in
  let probe_p4 = Gen.p4lite_line ~id:900001 (Gen.program_json probe_program) in
  let probe_nf = Gen.nf_line ~id:900002 ~nf:"cmsketch" in
  List.iter handle [ probe_p4; probe_p4; probe_nf; probe_nf ];
  let cls c = median_of (Hashtbl.find_all classes c) in
  (* A stream without programs (the hot workloads) times the probe's. *)
  if not (Array.exists (function Gen.P4 _ -> true | _ -> false) wl.Gen.targets) then
    for _ = 1 to 100 do
      ignore
        (Spans.record sp "nf_lang.p4lite_compile" (fun () -> Nf_lang.P4lite.compile probe_program))
    done;
  (* Per-line costs of the fast path's pieces and the router's placement,
     over the stream's lines. *)
  let lines = Array.map (fun k -> wl.Gen.lines.(k)) stream in
  let parse_us = per_item ~scale:1e6 lines (fun l -> ignore (Serve.Jsonl.of_string l)) in
  let scan_ns =
    per_item ~reps:3 ~scale:1e9 lines (fun l ->
        ignore (Fastpath.Scan.simple_object l);
        List.iter (fun m -> ignore (Fastpath.Scan.member l m)) [ "cmd"; "nf"; "workload"; "id"; "trace_id" ])
  in
  let shards = Fastpath.Shards.create ~shards:8 ~capacity:64 () in
  Hashtbl.iter (fun _ (key, entry) -> Fastpath.Shards.install shards key entry) entries;
  let keyed = Array.of_list (List.filter_map (fun k -> Hashtbl.find_opt entries k) (Array.to_list stream)) in
  let probe_ns = per_item ~reps:3 ~scale:1e9 keyed (fun (key, _) -> ignore (Fastpath.Shards.probe shards key)) in
  let buf = Buffer.create 4096 in
  let render_ns =
    per_item ~reps:3 ~scale:1e9 keyed (fun (_, entry) ->
        Buffer.clear buf;
        Fastpath.Entry.render_into buf entry ~id_src:"7" ~id_off:0 ~id_len:1 ~trace_src:"k7"
          ~trace_off:0 ~trace_len:2 ~cached:true ~path:"fast")
  in
  let front = Router.Front.create ~vnodes:Topo.vnodes ~workers:[ ("w0", "w0.sock"); ("w1", "w1.sock") ] () in
  let target_us = per_item ~scale:1e6 lines (fun l -> ignore (Router.Front.target front l)) in
  let ring = Router.Chash.create ~vnodes:Topo.vnodes [ "w0"; "w1" ] in
  let route_keys =
    Array.map
      (fun l -> match Router.Front.target front l with Some r -> r.Router.Front.rt_key | None -> l)
      lines
  in
  let chash_ns = per_item ~reps:3 ~scale:1e9 route_keys (fun k -> ignore (Router.Chash.lookup ring k)) in
  (* What the benchmark's own spans cost on the cheapest call it wraps. *)
  let fast_line = match wl.Gen.targets.(0) with Gen.Nf _ -> wl.Gen.lines.(0) | _ -> probe_nf in
  let spare = Spans.create () in
  let timed traced =
    let t = now () in
    for _ = 1 to overhead_calls do
      if traced then
        Spans.record spare "serve.handle_request" (fun () ->
            ignore (Serve.Server.handle_request server fast_line))
      else ignore (Serve.Server.handle_request server fast_line)
    done;
    now () -. t
  in
  let plain = ref [] and traced = ref [] in
  for _ = 1 to overhead_rounds do
    plain := timed false :: !plain;
    traced := timed true :: !traced
  done;
  let overhead = (median_of !traced /. median_of !plain -. 1.0) *. 100.0 in
  (* Stage figures: mean inclusive time per distinct line. *)
  let all = Spans.spans sp in
  let by = Spans.by_name all in
  let mean name =
    match Hashtbl.find_opt by name with
    | Some (n, dur, _) -> dur *. 1e6 /. float_of_int n
    | None -> 0.0
  in
  (* Children cover what a core.stages span does not spend itself: the
     sum of the stages' self times. *)
  let stage_self_sum =
    match Hashtbl.find_opt by "core.stages" with
    | Some (n, dur, self) -> (dur -. self) *. 1e6 /. float_of_int n
    | None -> 0.0
  in
  let analyze = mean "core.analyze" in
  Spans.write_json (Filename.concat dir "spans.json") all;
  let rows =
    List.map (fun n -> (n ^ "_us", mean n, "us")) stage_names
    @ [ ("core.stage_coverage", stage_self_sum /. analyze, "ratio");
        ("serve.fast_hit_us", cls "fast", "us"); ("serve.slow_hit_us", cls "slow_hit", "us");
        ("serve.miss_us", cls "miss", "us"); ("serve.jsonl_parse_us", parse_us, "us");
        ("fastpath.scan_ns", scan_ns, "ns"); ("fastpath.probe_ns", probe_ns, "ns");
        ("fastpath.render_ns", render_ns, "ns"); ("router.target_us", target_us, "us");
        ("router.chash_lookup_ns", chash_ns, "ns"); ("trace.overhead_pct", overhead, "%");
        ("persist.bundle_load_s", load_s, "s") ]
  in
  (rows, !mismatched)

(* The ledger file: every per-layer value with what it should move. *)
let write ~dir (rows : row list) =
  let oc = open_out (Filename.concat dir "ledger.json") in
  output_string oc "[\n";
  List.iteri
    (fun i (name, value, unit) ->
      Printf.fprintf oc "%s{\"name\":\"%s\",\"value\":%.9g,\"unit\":\"%s\",\"moves\":\"%s\"}\n"
        (if i = 0 then "" else ",")
        name value unit
        (Option.value (List.assoc_opt name moves) ~default:""))
    rows;
  output_string oc "]\n";
  close_out oc
