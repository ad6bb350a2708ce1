(* Tests for the benchmark's own helpers. *)

let test_rank_rule () =
  let sorted = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..10 is the 5th value" 5.0 (Stats.percentile sorted 50.0);
  Alcotest.(check (float 0.0)) "p90 of 1..10 is the 9th value" 9.0 (Stats.percentile sorted 90.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 10.0 (Stats.percentile sorted 100.0);
  Alcotest.(check (float 0.0)) "p0 clamps to the minimum" 1.0 (Stats.percentile sorted 0.0);
  Alcotest.(check int) "p99 of 1000 sits at rank 990" 990 (Stats.rank ~n:1000 99.0);
  Alcotest.(check int) "p99 of 1001 rounds its rank up" 991 (Stats.rank ~n:1001 99.0)

let test_sample_count_rule () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~n:1000 99.0);
  Alcotest.(check bool) "p99 is supported by 1000 samples" true (Stats.supported ~n:1000 99.0);
  Alcotest.(check bool) "but not by 999" false (Stats.supported ~n:999 99.0);
  Alcotest.(check bool) "p50 needs 20" true (Stats.supported ~n:20 50.0);
  Alcotest.(check bool) "an empty sample supports nothing" false (Stats.supported ~n:0 50.0)

let test_windows () =
  (* Three windows of 1..100, one shifted by a stall. *)
  let w k = Array.init 100 (fun i -> float_of_int (i + 1) +. if k = 1 then 1000.0 else 0.0) in
  let samples = Array.concat [ w 0; w 1; w 2 ] in
  Alcotest.(check (array (float 0.0))) "one median per window" [| 50.0; 1050.0; 50.0 |]
    (Stats.windows ~size:100 (fun s -> Stats.percentile s 50.0) samples);
  Alcotest.(check (array (float 0.0))) "a short sample is one window" [| 50.0 |]
    (Stats.windows ~size:200 (fun s -> Stats.percentile s 50.0) (w 0));
  Alcotest.(check int) "a remainder joins the windows" 2
    (Array.length (Stats.windows ~size:100 (fun s -> s.(0)) (Array.make 250 0.0)))

let test_zipf () =
  let z = Gen.zipf ~n:29 ~s:1.1 in
  let cdf = z.Gen.cdf in
  Alcotest.(check (float 0.0)) "the CDF ends at exactly 1" 1.0 cdf.(28);
  Array.iteri
    (fun i c -> if i > 0 then Alcotest.(check bool) "the CDF is increasing" true (c > cdf.(i - 1)))
    cdf;
  let draws seed =
    let st = Gen.rng ~seed ~salt:1 in
    Array.init 2000 (fun _ -> Gen.zipf_draw z st)
  in
  Alcotest.(check (array int)) "the same seed draws the same keys" (draws 7) (draws 7);
  Alcotest.(check bool) "another seed draws other keys" true (draws 7 <> draws 8);
  let d = draws 7 in
  Array.iter (fun k -> Alcotest.(check bool) "draws are ranks" true (k >= 0 && k < 29)) d;
  let top = Array.fold_left (fun n k -> if k = 0 then n + 1 else n) 0 d in
  Alcotest.(check bool) "rank 0 is the most popular" true (top > 2000 / 10)

let test_schedule () =
  let st = Gen.rng ~seed:3 ~salt:1 in
  let at = Gen.poisson_schedule st ~rate:1000.0 ~duration_s:2.0 in
  Alcotest.(check bool) "about rate * duration arrivals" true
    (Array.length at > 1800 && Array.length at < 2200);
  Array.iteri
    (fun i t -> if i > 0 then Alcotest.(check bool) "arrivals are ordered" true (t >= at.(i - 1)))
    at

(* Small models: whether a program is accepted does not depend on how
   well the models were trained. *)
let models =
  lazy
    (let ds = Clara.Predictor.synthesize_dataset ~n:6 () in
     let predictor = Clara.Predictor.train ~epochs:1 ds in
     let algo = Clara.Algo_id.train ~corpus:(Clara.Algo_corpus.labeled ~negatives:5 ()) () in
     { Clara.Pipeline.predictor; algo; scaleout = None; colocation = None })

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_programs_accepted () =
  let server = Serve.Server.create (Lazy.force models) in
  let wl = Option.get (Gen.make "cold-p4lite" ~seed:1 ~corpus:[] ~seconds:1.0) in
  Array.iteri
    (fun k line ->
      let reply = Serve.Server.handle_request server line in
      match wl.Gen.targets.(k) with
      | Gen.P4 p ->
        if not (contains reply {|"ok":true|}) then Alcotest.failf "program %d refused: %s" k reply;
        Alcotest.(check bool) "the reply names the program" true
          (contains reply (Printf.sprintf {|"nf":"%s"|} p.Nf_lang.P4lite.p_name))
      | Gen.Error_line ->
        if not (contains reply {|"ok":false|}) then Alcotest.failf "line %d was accepted: %s" k reply;
        Alcotest.(check bool) "the error echoes the pinned trace id" true
          (contains reply (Printf.sprintf {|"trace_id":"k%d"|} k))
      | Gen.Nf _ -> Alcotest.fail "the cold workload names no corpus NF")
    wl.Gen.lines

let test_streams_seeded () =
  let corpus = [ "a"; "b"; "c" ] in
  let mk seed = Option.get (Gen.make "hot-direct" ~seed ~corpus ~seconds:0.5) in
  Alcotest.(check (array int)) "same seed, same stream" (mk 5).Gen.open_keys (mk 5).Gen.open_keys;
  Alcotest.(check bool) "another seed, another stream" true
    ((mk 5).Gen.open_at <> (mk 6).Gen.open_at);
  let cold seed = Option.get (Gen.make "cold-p4lite" ~seed ~corpus ~seconds:0.5) in
  Alcotest.(check (array string)) "the program pool does not depend on the seed" (cold 5).Gen.lines
    (cold 6).Gen.lines

let span ?(parent = -1) id start stop =
  { Spans.id; name = Printf.sprintf "s%d" id; start; stop; parent; req = 0 }

let test_self_time () =
  (* root [0,10]; children [1,4] and [3,6] overlap, [8,12] runs past the
     root's end; [2,3] is a grandchild. *)
  let spans =
    [ span 0 0.0 10.0; span ~parent:0 1 1.0 4.0; span ~parent:0 2 3.0 6.0;
      span ~parent:0 3 8.0 12.0; span ~parent:1 4 2.0 3.0 ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  let check id want = Alcotest.(check (float 1e-9)) (Printf.sprintf "self of s%d" id) want (List.assoc id self) in
  check 0 3.0;  (* 10 minus the union [1,6] + [8,10] *)
  check 1 2.0;
  check 2 3.0;
  check 3 4.0;
  check 4 1.0;
  let _, dur, slf = Hashtbl.find (Spans.by_name spans) "s0" in
  Alcotest.(check (float 1e-9)) "by_name keeps the duration" 10.0 dur;
  Alcotest.(check (float 1e-9)) "and the self time" 3.0 slf

let test_record_nesting () =
  let t = Spans.create () in
  Spans.record t ~req:4 "outer" (fun () -> Spans.record t "inner" (fun () -> ()));
  match Spans.spans t with
  | [ inner; outer ] ->
    Alcotest.(check string) "children close first" "inner" inner.Spans.name;
    Alcotest.(check int) "the child points at its parent" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "and inherits its request" 4 inner.Spans.req;
    Alcotest.(check int) "the root has no parent" (-1) outer.Spans.parent
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile rank" `Quick test_rank_rule;
          Alcotest.test_case "sample-count rule" `Quick test_sample_count_rule;
          Alcotest.test_case "windows" `Quick test_windows ] );
      ( "gen",
        [ Alcotest.test_case "zipf sampler" `Quick test_zipf;
          Alcotest.test_case "poisson schedule" `Quick test_schedule;
          Alcotest.test_case "seeded streams" `Quick test_streams_seeded;
          Alcotest.test_case "p4lite programs accepted" `Quick test_programs_accepted ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "record nesting" `Quick test_record_nesting ] ) ]
