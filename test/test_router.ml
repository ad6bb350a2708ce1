(** Tests for the scale-out router: consistent-hash placement pinned
    against an independent reimplementation, bounded key movement under
    membership churn, per-tenant quota shedding, deterministic canary
    selection, worker-kill failover, and a zero-downtime rollout driven
    end-to-end over real worker processes.

    The topology cases spawn real workers: {!Router.Spawn} re-execs this
    test binary with a sentinel argv, so the hook below must run before
    anything else. *)

let () = Router.Spawn.worker_main_if_requested ()

module Jsonl = Serve.Jsonl

(* -- independent reimplementation of the placement function --

   Written deliberately differently from lib/router/chash.ml (explicit
   index loop, linear successor scan) so a shared bug cannot hide. *)

let fnv64_reimpl s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code s.[i]));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

(* ring position = splitmix64 finalizer of the FNV hash *)
let position_reimpl s =
  let z = fnv64_reimpl s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let lookup_reimpl ~vnodes names key =
  let points =
    List.concat_map
      (fun name ->
        List.init vnodes (fun i -> (position_reimpl (name ^ "#" ^ string_of_int i), name)))
      (List.sort_uniq String.compare names)
  in
  let sorted =
    List.sort
      (fun (a, an) (b, bn) ->
        match Int64.unsigned_compare a b with 0 -> String.compare an bn | c -> c)
      points
  in
  match sorted with
  | [] -> None
  | (_, first) :: _ ->
    let h = position_reimpl key in
    let rec scan = function
      | [] -> Some first  (* wrap *)
      | (p, name) :: rest ->
        if Int64.unsigned_compare p h >= 0 then Some name else scan rest
    in
    scan sorted

let keys n = List.init n (Printf.sprintf "key-%d")

let test_fnv_vectors () =
  (* published FNV-1a/64 test vectors *)
  Alcotest.(check bool) "offset basis" true (Router.Chash.fnv64 "" = 0xcbf29ce484222325L);
  Alcotest.(check bool) "'a'" true (Router.Chash.fnv64 "a" = 0xaf63dc4c8601ec8cL);
  Alcotest.(check bool) "'foobar'" true (Router.Chash.fnv64 "foobar" = 0x85944171f73967e8L)

let test_pin_against_reimpl () =
  let names = [ "alpha"; "bravo"; "charlie" ] in
  let ring = Router.Chash.create ~vnodes:16 names in
  List.iter
    (fun k ->
      let got = Router.Chash.lookup ring k in
      let want = lookup_reimpl ~vnodes:16 names k in
      if got <> want then
        Alcotest.failf "key %s: ring says %s, reimplementation says %s" k
          (Option.value got ~default:"-") (Option.value want ~default:"-"))
    (keys 500);
  (* creation order must not matter *)
  let shuffled = Router.Chash.create ~vnodes:16 [ "charlie"; "alpha"; "bravo" ] in
  List.iter
    (fun k ->
      Alcotest.(check bool) "order-independent" true
        (Router.Chash.lookup ring k = Router.Chash.lookup shuffled k))
    (keys 200)

let test_bounded_movement () =
  let names = [ "w0"; "w1"; "w2"; "w3"; "w4" ] in
  let before = Router.Chash.create ~vnodes:32 names in
  let owner ring k = Option.get (Router.Chash.lookup ring k) in
  let ks = keys 2000 in
  (* removing w2 may move only keys w2 owned *)
  let without = Router.Chash.create ~vnodes:32 (List.filter (( <> ) "w2") names) in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let o = owner before k and o' = owner without k in
      if o <> o' then begin
        if o <> "w2" then Alcotest.failf "key %s moved %s -> %s though w2 died" k o o';
        incr moved
      end)
    ks;
  let frac = float_of_int !moved /. 2000.0 in
  if frac < 0.05 || frac > 0.45 then
    Alcotest.failf "removal moved %.1f%% of keys (expected ~1/5)" (100.0 *. frac);
  (* adding w5 may only move keys onto w5 *)
  let plus = Router.Chash.create ~vnodes:32 ("w5" :: names) in
  let gained = ref 0 in
  List.iter
    (fun k ->
      let o = owner before k and o' = owner plus k in
      if o <> o' then begin
        if o' <> "w5" then Alcotest.failf "key %s moved %s -> %s though only w5 joined" k o o';
        incr gained
      end)
    ks;
  if !gained = 0 then Alcotest.fail "a joining worker took no keys at all"

let test_canary_draw () =
  let ks = keys 5000 in
  let selected seed fraction =
    List.filter (fun k -> Router.Chash.canary_draw ~seed k < fraction) ks
  in
  let a = selected 7 0.3 in
  (* pure in (seed, key): any evaluation order gives the same set *)
  let b =
    List.rev
      (List.filter (fun k -> Router.Chash.canary_draw ~seed:7 k < 0.3) (List.rev ks))
  in
  Alcotest.(check bool) "order-independent selection" true
    (List.sort compare a = List.sort compare b);
  let frac = float_of_int (List.length a) /. 5000.0 in
  if frac < 0.2 || frac > 0.4 then
    Alcotest.failf "fraction 0.3 selected %.3f of keyspace" frac;
  Alcotest.(check bool) "seed changes the draw" true (selected 8 0.3 <> a)

(* -- quota -- *)

let test_quota () =
  let q = Router.Quota.create ~limit:3 () in
  Router.Quota.begin_round q;
  for _ = 1 to 3 do
    Alcotest.(check bool) "under quota admitted" true (Router.Quota.admit q ~tenant:"a")
  done;
  Alcotest.(check bool) "4th line shed" false (Router.Quota.admit q ~tenant:"a");
  Alcotest.(check bool) "tenants are independent" true (Router.Quota.admit q ~tenant:"b");
  Router.Quota.begin_round q;
  Alcotest.(check bool) "round reset" true (Router.Quota.admit q ~tenant:"a");
  Alcotest.(check int) "sheds counted" 1 (Router.Quota.shed q);
  let unlimited = Router.Quota.create () in
  Router.Quota.begin_round unlimited;
  for _ = 1 to 100 do
    Alcotest.(check bool) "no limit" true (Router.Quota.admit unlimited ~tenant:"a")
  done

(* -- front, no live workers (sockets that do not exist) -- *)

let dead_front ?tenant_quota () =
  Router.Front.create ?tenant_quota ~vnodes:16
    ~workers:
      [ ("w0", "/tmp/clara-no-such-socket-0"); ("w1", "/tmp/clara-no-such-socket-1");
        ("w2", "/tmp/clara-no-such-socket-2") ]
    ()

let analyze_line ?(id = 1) ?tenant ~nf ~workload () =
  let tenant = match tenant with None -> "" | Some s -> Printf.sprintf {|,"tenant":"%s"|} s in
  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"%s"%s}|} id nf workload tenant

let parse line =
  match Jsonl.of_string line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable reply %s: %s" line e

let flagged name reply = Jsonl.member name reply = Some (Jsonl.Bool true)

let test_target_routing () =
  let t = dead_front () in
  (* router-local commands never forward *)
  List.iter
    (fun cmd ->
      let line = Printf.sprintf {|{"id":1,"cmd":"%s"}|} cmd in
      Alcotest.(check bool) (cmd ^ " is local") true (Router.Front.target t line = None))
    [ "health"; "topology"; "rollout"; "promote"; "rollback"; "reload"; "shutdown" ];
  (* analyze keys collapse to nf|workload; tenant comes along *)
  (match Router.Front.target t (analyze_line ~nf:"tcpack" ~workload:"mixed" ~tenant:"acme" ()) with
  | None -> Alcotest.fail "analyze must forward"
  | Some r ->
    Alcotest.(check string) "key" "tcpack|mixed" r.Router.Front.rt_key;
    Alcotest.(check string) "tenant" "acme" r.Router.Front.rt_tenant;
    Alcotest.(check bool) "no canary without a rollout" false r.Router.Front.rt_canary;
    (* pinned to the ring's own answer *)
    let ring = Router.Chash.create ~vnodes:16 [ "w0"; "w1"; "w2" ] in
    Alcotest.(check bool) "worker = ring lookup" true
      (r.Router.Front.rt_worker = Router.Chash.lookup ring "tcpack|mixed"));
  (* malformed lines key on the raw bytes but still salvage the tenant *)
  match Router.Front.target t {|{"id":7,"cmd":"analyze","tenant":"acme","nf": |} with
  | None -> Alcotest.fail "malformed lines forward (workers answer them typed)"
  | Some r -> Alcotest.(check string) "salvaged tenant" "acme" r.Router.Front.rt_tenant

let test_dead_worker_is_typed_unavailable () =
  let t = dead_front () in
  let replies =
    Router.Front.route_batch t [ analyze_line ~id:42 ~nf:"tcpack" ~workload:"mixed" () ]
  in
  match replies with
  | [ line ] ->
    let r = parse line in
    Alcotest.(check bool) "ok:false" true (Jsonl.member "ok" r = Some (Jsonl.Bool false));
    Alcotest.(check bool) "unavailable flag" true (flagged "unavailable" r);
    Alcotest.(check bool) "id echoed" true (Jsonl.member "id" r = Some (Jsonl.Num 42.0));
    Alcotest.(check bool) "worker named" true (Jsonl.str_member "worker" r <> None);
    Alcotest.(check bool) "failover counted" true (Router.Front.failovers t >= 1)
  | _ -> Alcotest.fail "expected exactly one reply"

let test_quota_shed_is_typed_overloaded () =
  let t = dead_front ~tenant_quota:1 () in
  let mk id = analyze_line ~id ~nf:"tcpack" ~workload:"mixed" ~tenant:"noisy" () in
  let other = analyze_line ~id:9 ~nf:"tcpack" ~workload:"mixed" ~tenant:"polite" () in
  let replies = Router.Front.route_batch t [ mk 1; mk 2; mk 3; other ] in
  match List.map parse replies with
  | [ first; second; third; fourth ] ->
    (* the one admitted line then hits the dead worker *)
    Alcotest.(check bool) "admitted line fails unavailable" true (flagged "unavailable" first);
    List.iter
      (fun r ->
        Alcotest.(check bool) "over-quota is overloaded" true (flagged "overloaded" r);
        Alcotest.(check bool) "tenant named" true
          (Jsonl.str_member "tenant" r = Some "noisy"))
      [ second; third ];
    (* an under-quota tenant in the same round is admitted (and then
       fails over the dead worker, not over quota) *)
    Alcotest.(check bool) "other tenant admitted" true (flagged "unavailable" fourth);
    Alcotest.(check bool) "quota sheds counted" true (Router.Front.shed t >= 2)
  | _ -> Alcotest.fail "expected four replies"

(* -- topology: real worker processes -- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tiny_models () =
  let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
  let predictor = Clara.Predictor.train ~epochs:1 ds in
  let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
  { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None }

(* Two bundles of the same models but distinct manifests: distinct
   version tokens, so rollouts have something to negotiate. *)
let save_bundle ~built_at dir models =
  let manifest =
    { Persist.Bundle.seed = 501; epochs = 1;
      corpus_hash = Persist.Bundle.corpus_hash ();
      built_at }
  in
  Persist.Bundle.save ~dir manifest models;
  Persist.Bundle.version manifest

let fresh_dir tag =
  let dir = Filename.temp_file ("clara_router_" ^ tag) ".d" in
  Sys.remove dir;
  dir

type fleet = {
  fl_models : Clara.Pipeline.models;
  fl_workers : Router.Spawn.t list;
  fl_front : Router.Front.t;
  fl_dir_a : string;
  fl_dir_b : string;
  fl_version_a : string;
  fl_version_b : string;
}

let with_fleet ?(n = 3) ?tenant_quota f =
  let models = tiny_models () in
  let dir_a = fresh_dir "a" and dir_b = fresh_dir "b" in
  let version_a = save_bundle ~built_at:"1970-01-01T00:00:00Z" dir_a models in
  let version_b = save_bundle ~built_at:"1971-01-01T00:00:00Z" dir_b models in
  if version_a = version_b then Alcotest.fail "distinct manifests must version differently";
  let sockets =
    List.init n (fun k ->
        Printf.sprintf "%s/clara_rt_%d_w%d.sock" (Filename.get_temp_dir_name ())
          (Unix.getpid ()) k)
  in
  let workers =
    List.mapi
      (fun k socket_path ->
        Router.Spawn.spawn ~name:(Printf.sprintf "w%d" k) ~socket_path ~bundle:dir_a ())
      sockets
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Router.Spawn.kill workers;
      List.iter Router.Spawn.wait workers;
      List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets;
      rm_rf dir_a;
      rm_rf dir_b)
  @@ fun () ->
  List.iter
    (fun sp ->
      if not (Router.Spawn.wait_ready sp) then
        Alcotest.failf "worker %s never came up" sp.Router.Spawn.sp_name)
    workers;
  let front =
    Router.Front.create ?tenant_quota ~vnodes:16 ~forward_timeout_s:10.0 ~canary_seed:7
      ~active_bundle:dir_a
      ~workers:(List.map (fun sp -> (sp.Router.Spawn.sp_name, sp.Router.Spawn.sp_socket)) workers)
      ()
  in
  let fleet =
    { fl_models = models; fl_workers = workers; fl_front = front; fl_dir_a = dir_a; fl_dir_b = dir_b;
      fl_version_a = version_a; fl_version_b = version_b }
  in
  let out = f fleet in
  Router.Front.close front;
  out

let worker_version sp =
  match
    Router.Upstream.oneshot ~socket_path:sp.Router.Spawn.sp_socket ~timeout_s:10.0
      {|{"cmd":"health","id":0}|}
  with
  | Error e -> Alcotest.failf "health probe of %s failed: %s" sp.Router.Spawn.sp_name e
  | Ok reply -> (
    match Jsonl.str_member "version" (parse reply) with
    | Some v -> v
    | None -> Alcotest.failf "no version in health reply %s" reply)

let good_batch () =
  [ analyze_line ~id:1 ~nf:"tcpack" ~workload:"mixed" ();
    {|{"id":2,"cmd":"ping"}|};
    analyze_line ~id:3 ~nf:"udpipencap" ~workload:"small" ();
    analyze_line ~id:4 ~nf:"tcpack" ~workload:"mixed" () ]

let all_ok replies =
  List.iter
    (fun line ->
      let r = parse line in
      if Jsonl.member "ok" r <> Some (Jsonl.Bool true) then
        Alcotest.failf "reply not ok: %s" line)
    replies

let test_routed_serving () =
  with_fleet @@ fun fl ->
  let replies = Router.Front.route_batch fl.fl_front (good_batch ()) in
  Alcotest.(check int) "reply per line" 4 (List.length replies);
  all_ok replies;
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* round 1 forwards all four lines and installs the two analyze keys;
     round 2 answers its three analyze lines at the front and forwards
     only the ping *)
  Alcotest.(check int) "lines forwarded" 5 (Router.Front.forwarded fl.fl_front);
  Alcotest.(check int) "front hits" 3 (Router.Front.front_hits fl.fl_front);
  Alcotest.(check int) "served = forwarded + front hits"
    (Router.Front.forwarded fl.fl_front + Router.Front.front_hits fl.fl_front)
    (Router.Front.served fl.fl_front);
  Alcotest.(check int) "two keys installed" 2 (Router.Front.front_entries fl.fl_front);
  Alcotest.(check int) "nothing unavailable" 0 (Router.Front.unavailable fl.fl_front);
  (* the aggregate health document sees the whole fleet *)
  Router.Front.probe fl.fl_front;
  let h = parse (Router.Front.healthz_json fl.fl_front) in
  Alcotest.(check bool) "healthz ok" true (flagged "ok" h);
  Alcotest.(check bool) "all workers up" true
    (Jsonl.member "workers_up" h = Some (Jsonl.Num 3.0));
  Alcotest.(check bool) "front_hits in healthz" true
    (Jsonl.member "front_hits" h = Some (Jsonl.Num 3.0));
  (* the first probe learns the fleet's version (the front presumed one
     "unknown" version until then): a version move, so it flushed *)
  Alcotest.(check bool) "front_entries in healthz" true
    (Jsonl.member "front_entries" h = Some (Jsonl.Num 0.0));
  (match Jsonl.member "workers" h with
  | Some (Jsonl.Arr ws) ->
    Alcotest.(check int) "three workers listed" 3 (List.length ws);
    List.iter
      (fun w ->
        Alcotest.(check bool) "per-worker version aggregated" true
          (Jsonl.str_member "version" w = Some fl.fl_version_a);
        match Jsonl.num_member "pid" w with
        | Some p when p > 0.0 -> ()
        | _ -> Alcotest.fail "per-worker pid aggregated")
      ws
  | _ -> Alcotest.fail "healthz lists workers")

let owner_of fl line =
  match Router.Front.target fl.fl_front line with
  | Some { Router.Front.rt_worker = Some w; _ } -> w
  | _ -> Alcotest.failf "no owner for %s" line

let test_worker_kill_failover () =
  with_fleet @@ fun fl ->
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* the victim owns a cached key; the failover path is exercised with a
     key it also owns that is not cached yet, so the line must cross *)
  let cached_line = analyze_line ~id:6 ~nf:"tcpack" ~workload:"mixed" () in
  let owner = owner_of fl cached_line in
  let key_line =
    let candidates =
      List.concat_map
        (fun nf ->
          List.map
            (fun workload -> analyze_line ~id:5 ~nf ~workload ())
            [ "mixed"; "large"; "small" ])
        (Serve.Server.corpus_names ())
    in
    match
      List.find_opt
        (fun l ->
          owner_of fl l = owner
          && l <> analyze_line ~id:5 ~nf:"tcpack" ~workload:"mixed" ()
          && l <> analyze_line ~id:5 ~nf:"udpipencap" ~workload:"small" ())
        candidates
    with
    | Some l -> l
    | None -> Alcotest.fail "no uncached key owned by the victim"
  in
  let entries = Router.Front.front_entries fl.fl_front in
  let victim = List.find (fun sp -> sp.Router.Spawn.sp_name = owner) fl.fl_workers in
  Router.Spawn.kill victim;
  Router.Spawn.wait victim;
  (* in-flight round: typed unavailable naming the dead worker *)
  (match Router.Front.route_batch fl.fl_front [ key_line ] with
  | [ line ] ->
    let r = parse line in
    Alcotest.(check bool) "typed unavailable" true (flagged "unavailable" r);
    Alcotest.(check bool) "dead worker named" true (Jsonl.str_member "worker" r = Some owner)
  | _ -> Alcotest.fail "expected one reply");
  Alcotest.(check int) "one failover" 1 (Router.Front.failovers fl.fl_front);
  Alcotest.(check int) "failed line installed nothing" entries
    (Router.Front.front_entries fl.fl_front);
  (* the cached key of the dead owner is still answered, from the front:
     its entry is of the version the surviving fleet serves *)
  let hits = Router.Front.front_hits fl.fl_front in
  all_ok (Router.Front.route_batch fl.fl_front [ cached_line ]);
  Alcotest.(check int) "dead owner's cached key answered at the front" (hits + 1)
    (Router.Front.front_hits fl.fl_front);
  (* next round re-hashes to a survivor *)
  (match Router.Front.target fl.fl_front key_line with
  | Some { Router.Front.rt_worker = Some w; _ } when w <> owner -> ()
  | _ -> Alcotest.fail "key must re-hash off the dead worker");
  all_ok (Router.Front.route_batch fl.fl_front [ key_line ]);
  (* a respawned worker is re-admitted by the prober and takes its keys
     back (deterministic placement) *)
  let replacement =
    Router.Spawn.spawn ~name:owner ~socket_path:victim.Router.Spawn.sp_socket
      ~bundle:fl.fl_dir_a ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.Spawn.kill replacement;
      Router.Spawn.wait replacement)
  @@ fun () ->
  if not (Router.Spawn.wait_ready replacement) then Alcotest.fail "respawn never came up";
  Router.Front.probe fl.fl_front;
  (match Router.Front.target fl.fl_front key_line with
  | Some { Router.Front.rt_worker = Some w; _ } ->
    Alcotest.(check string) "keys return to the re-admitted worker" owner w
  | _ -> Alcotest.fail "no owner after re-admission");
  (* key_line is cached at the front by now; an escaped extra member
     keeps the same key off the classifier so the line must cross *)
  let bypass = String.sub key_line 0 (String.length key_line - 1) ^ {|,"x":"a\\b"}|} in
  Alcotest.(check string) "bypass line keeps the key's owner" owner (owner_of fl bypass);
  let forwarded = Router.Front.forwarded fl.fl_front in
  all_ok (Router.Front.route_batch fl.fl_front [ bypass ]);
  Alcotest.(check int) "re-admitted worker answers" (forwarded + 1)
    (Router.Front.forwarded fl.fl_front)

let test_canary_rollout () =
  with_fleet @@ fun fl ->
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* canary 40% of a 3-worker fleet -> 2 canaries, 1 kept back *)
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_b ~fraction:0.4 () with
  | Error e -> Alcotest.failf "rollout failed: %s" e
  | Ok v -> Alcotest.(check string) "negotiated version" fl.fl_version_b v);
  let versions = List.map worker_version fl.fl_workers in
  Alcotest.(check int) "two canaries on the new version" 2
    (List.length (List.filter (( = ) fl.fl_version_b) versions));
  Alcotest.(check int) "one worker kept back" 1
    (List.length (List.filter (( = ) fl.fl_version_a) versions));
  (* zero failed requests while the rollout is live *)
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* canary selection is a pure function of (seed, key): any arrival
     order steers the same keys *)
  let lines = List.init 40 (fun i -> analyze_line ~id:i ~nf:(Printf.sprintf "k%d" i) ~workload:"mixed" ()) in
  let steer ls =
    List.map
      (fun l ->
        match Router.Front.target fl.fl_front l with
        | Some r -> (l, r.Router.Front.rt_canary, r.Router.Front.rt_worker)
        | None -> Alcotest.failf "line did not forward: %s" l)
      ls
  in
  let forward_order = steer lines in
  let reverse_order = List.rev (steer (List.rev lines)) in
  Alcotest.(check bool) "steering ignores arrival order" true (forward_order = reverse_order);
  let canaried = List.length (List.filter (fun (_, c, _) -> c) forward_order) in
  if canaried = 0 || canaried = 40 then
    Alcotest.failf "canary fraction 0.4 steered %d/40 keys" canaried;
  (* promote: the rest of the fleet converges on the new version *)
  (match Router.Front.promote fl.fl_front with
  | Error e -> Alcotest.failf "promote failed: %s" e
  | Ok (v, failed) ->
    Alcotest.(check string) "promoted version" fl.fl_version_b v;
    Alcotest.(check int) "no worker failed to promote" 0 (List.length failed));
  List.iter
    (fun sp -> Alcotest.(check string) "fleet on new version" fl.fl_version_b (worker_version sp))
    fl.fl_workers;
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* a second rollout, rolled back: canaries return to the active bundle *)
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_a ~fraction:0.4 () with
  | Error e -> Alcotest.failf "second rollout failed: %s" e
  | Ok v -> Alcotest.(check string) "old bundle re-negotiated" fl.fl_version_a v);
  (match Router.Front.rollback fl.fl_front with
  | Error e -> Alcotest.failf "rollback failed: %s" e
  | Ok failed -> Alcotest.(check int) "rollback clean" 0 (List.length failed));
  List.iter
    (fun sp ->
      Alcotest.(check string) "rollback restored the fleet" fl.fl_version_b (worker_version sp))
    fl.fl_workers;
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  (* worker-side negotiation: a reload whose expectation mismatches is
     refused and the old version keeps serving *)
  let w0 = List.hd fl.fl_workers in
  (match
     Router.Upstream.oneshot ~socket_path:w0.Router.Spawn.sp_socket ~timeout_s:10.0
       (Printf.sprintf {|{"cmd":"reload","bundle":"%s","expect":"deadbeef","id":0}|}
          fl.fl_dir_a)
   with
  | Error e -> Alcotest.failf "reload round trip failed: %s" e
  | Ok reply ->
    let r = parse reply in
    Alcotest.(check bool) "mismatched expect refused" true
      (Jsonl.member "ok" r = Some (Jsonl.Bool false)));
  Alcotest.(check string) "old version still serving" fl.fl_version_b (worker_version w0)

let test_client_through_router_socket () =
  with_fleet ~n:2 @@ fun fl ->
  let socket_path =
    Printf.sprintf "%s/clara_rt_%d_front.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let front_domain =
    Domain.spawn (fun () -> Router.Front.run fl.fl_front ~socket_path)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.Front.request_drain fl.fl_front;
      Domain.join front_domain)
  @@ fun () ->
  (* wait for the router socket *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  (* the stock retrying client works unchanged against a router socket *)
  let client = Serve.Client.create ~timeout_s:10.0 ~socket_path () in
  (match
     Serve.Client.request client
       [ ("cmd", Jsonl.Str "analyze"); ("nf", Jsonl.Str "tcpack");
         ("workload", Jsonl.Str "mixed") ]
   with
  | Error e -> Alcotest.failf "query via router failed: %s" (Serve.Client.error_to_string e)
  | Ok r ->
    Alcotest.(check bool) "analyze ok via router" true
      (Jsonl.member "ok" r = Some (Jsonl.Bool true));
    Alcotest.(check bool) "report present" true (Jsonl.str_member "report" r <> None));
  (match Serve.Client.request client [ ("cmd", Jsonl.Str "health") ] with
  | Error e -> Alcotest.failf "health via router failed: %s" (Serve.Client.error_to_string e)
  | Ok r -> (
    Alcotest.(check bool) "role router" true (Jsonl.str_member "role" r = Some "router");
    match Jsonl.member "workers" r with
    | Some (Jsonl.Arr ws) -> Alcotest.(check int) "workers aggregated" 2 (List.length ws)
    | _ -> Alcotest.fail "workers missing from health"));
  Serve.Client.close client

(* -- the serving driver's connection limit, on both front ends -- *)

let connect_when_ready path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let read_to_eof fd =
  let b = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ()

(* A front end at its one-connection limit answers a second client with
   exactly one typed overloaded line, then hangs up on it.  The router's
   workers need not exist: the reject happens at accept. *)
let test_connection_limit () =
  let server () =
    let s = Serve.Server.create ~max_clients:1 (tiny_models ()) in
    ( (fun socket_path -> Serve.Server.run s ~socket_path),
      (fun () -> Serve.Server.shed s),
      fun () -> Serve.Server.request_drain s )
  in
  let router () =
    let t =
      Router.Front.create ~max_clients:1 ~workers:[ ("w0", "/tmp/clara-no-such-socket-0") ] ()
    in
    ( (fun socket_path -> Router.Front.run t ~socket_path),
      (fun () -> Router.Front.shed t),
      fun () -> Router.Front.request_drain t )
  in
  List.iter
    (fun (name, make) ->
      let run, shed, drain = make () in
      let socket_path =
        Printf.sprintf "%s/clara_limit_%d_%s.sock" (Filename.get_temp_dir_name ())
          (Unix.getpid ()) name
      in
      let serving = Domain.spawn (fun () -> run socket_path) in
      Fun.protect
        ~finally:(fun () ->
          drain ();
          Domain.join serving)
        (fun () ->
          let held = connect_when_ready socket_path in
          (* one answered line proves the first client was accepted *)
          let line = {|{"id":1,"cmd":"ping"}|} ^ "\n" in
          ignore (Unix.write_substring held line 0 (String.length line));
          ignore (input_line (Unix.in_channel_of_descr held));
          let shed_before = shed () in
          let second = connect_when_ready socket_path in
          let got = read_to_eof second in
          Unix.close second;
          (match List.filter (( <> ) "") (String.split_on_char '\n' got) with
          | [ reply ] ->
            let r = parse reply in
            Alcotest.(check bool) (name ^ ": ok false") true
              (Jsonl.member "ok" r = Some (Jsonl.Bool false));
            Alcotest.(check bool) (name ^ ": overloaded") true (flagged "overloaded" r)
          | lines -> Alcotest.failf "%s: want one reject line, got %d" name (List.length lines));
          Alcotest.(check int) (name ^ ": one shed") (shed_before + 1) (shed ());
          Unix.close held);
      Alcotest.(check bool) (name ^ ": socket removed") false (Sys.file_exists socket_path))
    [ ("server", server); ("router", router) ]

(* -- the front flow cache -- *)

let trace_of reply =
  match Jsonl.str_member "trace_id" (parse reply) with
  | Some t -> t
  | None -> Alcotest.failf "no trace_id in %s" reply

(* Swap the first occurrence of [sub] in [s]. *)
let replace_first s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then Alcotest.failf "%S not found in %s" sub s
    else if String.sub s i m = sub then String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else at (i + 1)
  in
  at 0

let test_front_hit_bytes () =
  with_fleet ~n:2 @@ fun fl ->
  let server = Serve.Server.create fl.fl_models in
  let lines =
    [ {|{"id":11,"cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"tr-int"}|};
      {|{"id":"req-7","cmd":"analyze","nf":"tcpack","workload":"mixed","trace_id":"tr-str"}|};
      {|{"id":null,"cmd":"analyze","nf":"udpipencap","workload":"small","trace_id":"tr-null"}|};
      {|{"cmd":"analyze","nf":"udpipencap","workload":"small"}|};
      {|{"op":"analyze","id":12,"nf":"tcpack"}|} ]
  in
  List.iter
    (fun line ->
      let owner =
        List.find (fun sp -> sp.Router.Spawn.sp_name = owner_of fl line) fl.fl_workers
      in
      (* first pass installs (and warms the owner's own flow cache) *)
      all_ok (Router.Front.route_batch fl.fl_front [ line ]);
      let hits = Router.Front.front_hits fl.fl_front in
      let front =
        match Router.Front.route_batch fl.fl_front [ line ] with
        | [ r ] -> r
        | _ -> Alcotest.fail "expected one reply"
      in
      Alcotest.(check int) ("front hit: " ^ line) (hits + 1) (Router.Front.front_hits fl.fl_front);
      let worker =
        match
          Router.Upstream.oneshot ~socket_path:owner.Router.Spawn.sp_socket ~timeout_s:10.0 line
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "direct query failed: %s" e
      in
      Alcotest.(check bool) "worker answered from its fast path" true
        (Jsonl.str_member "path" (parse worker) = Some "fast");
      (* a minted trace id is the only byte a front hit may differ in *)
      let worker = replace_first worker ~sub:(trace_of worker) ~by:(trace_of front) in
      Alcotest.(check string) ("front hit = worker fast path: " ^ line) worker front;
      Alcotest.(check string)
        ("front hit = in-process handle_request modulo the mask: " ^ line)
        (Serve.Replay.normalize (Serve.Server.handle_request server line))
        (Serve.Replay.normalize front))
    lines

let front_hit_count fl lines =
  let before = Router.Front.front_hits fl.fl_front in
  all_ok (Router.Front.route_batch fl.fl_front lines);
  Router.Front.front_hits fl.fl_front - before

let warm fl =
  all_ok (Router.Front.route_batch fl.fl_front (good_batch ()));
  if Router.Front.front_entries fl.fl_front = 0 then Alcotest.fail "warming installed nothing"

let test_front_flushes () =
  with_fleet @@ fun fl ->
  let entries () = Router.Front.front_entries fl.fl_front in
  Router.Front.probe fl.fl_front;
  warm fl;
  (* a canary rollout flushes, and nothing is installed or answered at
     the front while it runs *)
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_b ~fraction:0.4 () with
  | Error e -> Alcotest.failf "rollout failed: %s" e
  | Ok _ -> ());
  Alcotest.(check int) "start_rollout flushes" 0 (entries ());
  let canary_lines =
    List.concat_map
      (fun nf -> List.map (fun workload -> analyze_line ~nf ~workload ()) [ "mixed"; "small" ])
      (Serve.Server.corpus_names ())
    |> List.filter (fun l ->
           match Router.Front.target fl.fl_front l with
           | Some r -> r.Router.Front.rt_canary
           | None -> false)
  in
  if canary_lines = [] then Alcotest.fail "no canary-drawn keys";
  (* repeated canary-drawn keys are answered by the canaries, never here *)
  all_ok (Router.Front.route_batch fl.fl_front canary_lines);
  Alcotest.(check int) "canary-drawn keys never answered at the front" 0
    (front_hit_count fl canary_lines);
  Alcotest.(check int) "no front hits during a canary" 0
    (front_hit_count fl (good_batch () @ good_batch ()));
  Alcotest.(check int) "no installs during a canary" 0 (entries ());
  (match Router.Front.promote fl.fl_front with
  | Error e -> Alcotest.failf "promote failed: %s" e
  | Ok _ -> ());
  Alcotest.(check int) "promote flushes" 0 (entries ());
  warm fl;
  Alcotest.(check int) "serving again once promoted" 3 (front_hit_count fl (good_batch ()));
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_a ~fraction:0.4 () with
  | Error e -> Alcotest.failf "second rollout failed: %s" e
  | Ok _ -> ());
  Alcotest.(check int) "start_rollout flushes again" 0 (entries ());
  ignore (Router.Front.route_batch fl.fl_front (good_batch ()));
  (match Router.Front.rollback fl.fl_front with
  | Error e -> Alcotest.failf "rollback failed: %s" e
  | Ok _ -> ());
  Alcotest.(check int) "rollback flushes" 0 (entries ());
  (* a full canary puts every worker on one version, but a rollout is
     still in progress: nothing is installed or answered at the front *)
  warm fl;
  (match Router.Front.start_rollout fl.fl_front ~bundle:fl.fl_dir_a ~fraction:1.0 () with
  | Error e -> Alcotest.failf "full canary failed: %s" e
  | Ok _ -> ());
  ignore (Router.Front.route_batch fl.fl_front (good_batch ()));
  Alcotest.(check int) "no front hits during a full canary" 0
    (front_hit_count fl (good_batch ()));
  Alcotest.(check int) "no installs during a full canary" 0 (entries ());
  (match Router.Front.rollback fl.fl_front with
  | Error e -> Alcotest.failf "full canary rollback failed: %s" e
  | Ok _ -> ());
  (* a probe that sees the fleet version move flushes: every worker is
     reloaded out of band, behind the router's back *)
  warm fl;
  let reload sp dir =
    match
      Router.Upstream.oneshot ~socket_path:sp.Router.Spawn.sp_socket ~timeout_s:10.0
        (Printf.sprintf {|{"cmd":"reload","bundle":"%s","id":0}|} dir)
    with
    | Ok r when flagged "ok" (parse r) -> ()
    | Ok r -> Alcotest.failf "reload refused: %s" r
    | Error e -> Alcotest.failf "reload failed: %s" e
  in
  List.iter (fun sp -> reload sp fl.fl_dir_a) fl.fl_workers;
  Router.Front.probe fl.fl_front;
  Alcotest.(check int) "probe of a changed version flushes" 0 (entries ());
  warm fl;
  (* one worker on another version: the fleet disagrees, the cache is
     flushed and does not serve *)
  reload (List.hd fl.fl_workers) fl.fl_dir_b;
  Router.Front.probe fl.fl_front;
  Alcotest.(check int) "probe of a split fleet flushes" 0 (entries ());
  ignore (Router.Front.route_batch fl.fl_front (good_batch ()));
  Alcotest.(check int) "a split fleet is never answered at the front" 0
    (front_hit_count fl (good_batch ()));
  Alcotest.(check int) "a split fleet installs nothing" 0 (entries ())

let test_front_guards () =
  with_fleet ~n:2 ~tenant_quota:1 @@ fun fl ->
  let line id = analyze_line ~id ~nf:"tcpack" ~workload:"mixed" ~tenant:"noisy" () in
  all_ok (Router.Front.route_batch fl.fl_front [ line 1 ]);
  (* a tenant over its quota is shed even on a cached key *)
  (match List.map parse (Router.Front.route_batch fl.fl_front [ line 2; line 3 ]) with
  | [ first; second ] ->
    Alcotest.(check bool) "first line is a front hit" true
      (Jsonl.str_member "path" first = Some "fast");
    Alcotest.(check bool) "second line shed" true (flagged "overloaded" second);
    Alcotest.(check bool) "tenant named" true (Jsonl.str_member "tenant" second = Some "noisy")
  | _ -> Alcotest.fail "expected two replies");
  Alcotest.(check int) "one front hit" 1 (Router.Front.front_hits fl.fl_front);
  (* an armed jsonl.parse fault forces the forward path *)
  let forwarded = Router.Front.forwarded fl.fl_front in
  Obs.Fault.set ~point:"jsonl.parse" ~prob:0.0 ~seed:1;
  Fun.protect ~finally:(fun () -> Obs.Fault.remove "jsonl.parse") (fun () ->
      all_ok (Router.Front.route_batch fl.fl_front [ line 4 ]));
  Alcotest.(check int) "no front hit under the fault" 1 (Router.Front.front_hits fl.fl_front);
  Alcotest.(check int) "forwarded under the fault" (forwarded + 1)
    (Router.Front.forwarded fl.fl_front)

(* -- route equivalence: scanner placement = Jsonl placement -- *)

let route_corpus () =
  let synth =
    List.map (fun e -> e.Nf_lang.Ast.name) (Synth.Generator.batch ~seed:5 6)
  in
  let cmds =
    [ {|"cmd":"analyze"|}; {|"op":"analyze"|}; {|"cmd":"ping"|}; {|"cmd":1,"op":"analyze"|};
      {|"cmd":"analyze","op":"ping"|} ]
  in
  let nfs =
    [ {|"nf":"tcpack"|}; {|"nf":"tc\"pack"|}; {|"nf":"tcack"|}; {|"nf":3|}; "";
      {|"nf":"a","nf":"b"|} ]
    @ List.map (Printf.sprintf {|"nf":"%s"|}) synth
  in
  let workloads =
    [ ""; {|"workload":"mixed"|}; {|"workload":"small"|}; {|"workload":"large"|};
      {|"workload":"huge"|}; {|"workload":3|}; {|"workload":"small"|} ]
  in
  let ids = [ ""; {|"id":7|}; {|"id":"s"|}; {|"id":null|}; {|"id":1.5|}; {|"id":007|}; {|"id":1e3|} ] in
  let tenants =
    [ ""; {|"tenant":"acme"|}; {|"tenant":5|}; {|"tenant":"a\"b"|};
      {|"tenant":"x","tenant":"y"|} ]
  in
  let extras =
    [ ""; {|"p4lite":{"tables":[{"name":"t","keys":["ip_src"],"actions":["drop"]}]}|};
      {|"p4lite":1|}; {|"deadline_ms":5|}; {|"trace_id":"k"|}; {|"trace_id":3|};
      {|"x":[1,{"y":2}]|} ]
  in
  let obj members = "{" ^ String.concat "," (List.filter (( <> ) "") members) ^ "}" in
  let product =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun nf ->
            List.concat_map
              (fun w ->
                List.concat_map
                  (fun id ->
                    List.concat_map
                      (fun tn -> List.map (fun x -> obj [ id; c; nf; w; tn; x ]) extras)
                      tenants)
                  ids)
              workloads)
          nfs)
      cmds
  in
  let malformed =
    [ ""; "{"; {|{"cmd":"analyze","nf":"tcpack",}|}; {|{"cmd":"analyze","nf":"tcpack"} x|};
      {|["cmd","analyze"]|}; {|{"cmd":"analyze","tenant":"acme","nf": |};
      {| { "cmd" : "analyze" , "nf" : "tcpack" , "tenant" : "acme" } |} ]
  in
  product @ malformed

let test_route_equivalence () =
  let t = dead_front () in
  let scanned = ref 0 and parsed = ref 0 in
  List.iter
    (fun line ->
      let reference = Router.Front.parsed_target t line in
      (match Router.Front.scan_target t line with
      | Some r ->
        incr scanned;
        if Some r <> reference then Alcotest.failf "scan and Jsonl routes differ for %s" line
      | None -> incr parsed);
      if Router.Front.target t line <> reference then
        Alcotest.failf "target differs from the Jsonl route for %s" line)
    (route_corpus ());
  if !scanned = 0 || !parsed = 0 then
    Alcotest.failf "corpus must exercise both classifiers (scan %d, parsed %d)" !scanned !parsed

let () =
  Alcotest.run "router"
    [ ( "chash",
        [ Alcotest.test_case "fnv-1a vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "pin against independent reimplementation" `Quick
            test_pin_against_reimpl;
          Alcotest.test_case "bounded movement on membership change" `Quick
            test_bounded_movement;
          Alcotest.test_case "canary draw pure and seeded" `Quick test_canary_draw ] );
      ( "quota",
        [ Alcotest.test_case "per-tenant per-round admission" `Quick test_quota ] );
      ( "front",
        [ Alcotest.test_case "placement and local commands" `Quick test_target_routing;
          Alcotest.test_case "dead worker is typed unavailable" `Quick
            test_dead_worker_is_typed_unavailable;
          Alcotest.test_case "quota shed is typed overloaded" `Quick
            test_quota_shed_is_typed_overloaded;
          Alcotest.test_case "scan route equals Jsonl route" `Quick test_route_equivalence;
          Alcotest.test_case "connection limit on server and router" `Quick
            test_connection_limit ] );
      ( "topology",
        [ Alcotest.test_case "routed serving and health fan-in" `Quick test_routed_serving;
          Alcotest.test_case "worker-kill failover and re-admission" `Quick
            test_worker_kill_failover;
          Alcotest.test_case "canary rollout, promote, rollback" `Quick test_canary_rollout;
          Alcotest.test_case "client unchanged through router socket" `Quick
            test_client_through_router_socket;
          Alcotest.test_case "front hit bytes equal the worker's" `Quick test_front_hit_bytes;
          Alcotest.test_case "front cache flushes on version moves" `Quick test_front_flushes;
          Alcotest.test_case "quota and fault guards apply to front hits" `Quick
            test_front_guards ] ) ]
