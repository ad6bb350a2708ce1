(* Seeded request generators: Zipf key draws, Poisson send schedules and
   inline P4lite programs, rendered to the exact request lines the system
   under test receives. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* -- Zipf -- *)

type zipf = { cdf : float array }

let zipf ~n ~s =
  if n < 1 then invalid_arg "Gen.zipf: n < 1";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc /. total)
      w
  in
  (* Rounding can leave the last bucket a hair under 1; a draw of
     0.99999... must still land in it. *)
  cdf.(n - 1) <- 1.0;
  { cdf }

(* Smallest rank whose cumulative weight exceeds the uniform draw. *)
let zipf_draw z st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* -- Poisson arrivals -- *)

let poisson_schedule st ~rate ~duration_s =
  let out = ref [] and t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1.0 -. Random.State.float st 1.0) /. rate);
    if !t < duration_s then out := !t :: !out else continue := false
  done;
  Array.of_list (List.rev !out)

(* -- P4lite programs over the fields and actions Serve.Server accepts -- *)

let fields =
  Nf_lang.Ast.
    [| Eth_type; Ip_src; Ip_dst; Ip_proto; Ip_ttl; Ip_len; Ip_hl; Ip_tos; Ip_id; Ip_csum;
       Tcp_sport; Tcp_dport; Tcp_seq; Tcp_ack; Tcp_off; Tcp_flags; Tcp_win; Tcp_csum;
       Udp_sport; Udp_dport; Udp_len; Udp_csum |]

let pick st a = a.(Random.State.int st (Array.length a))

let action st : Nf_lang.P4lite.action =
  match Random.State.int st 6 with
  | 0 -> Drop_packet
  | 1 -> No_op
  | 2 -> Decrement_ttl
  | 3 -> Forward (Random.State.int st 8)
  | 4 -> Set_field (pick st fields)
  | _ -> Count (Printf.sprintf "c%d" (Random.State.int st 4))

let table st i : Nf_lang.P4lite.table =
  let keys = List.init (1 + Random.State.int st 2) (fun _ -> pick st fields) in
  let actions = List.init (1 + Random.State.int st 3) (fun _ -> action st) in
  let default_action = action st in
  { t_name = Printf.sprintf "t%d" i; keys; actions; default_action;
    size = pick st [| 16; 32; 64; 128; 256 |] }

(* The program name is unique per index, so every pool entry compiles to a
   distinct element and therefore a distinct flow-cache key. *)
let p4lite_program st ~index : Nf_lang.P4lite.program =
  let pipeline = List.init (1 + Random.State.int st 3) (table st) in
  { p_name = Printf.sprintf "gen%d" index; pipeline }

(* The request encoding of an action, as Serve.Server parses it. *)
let action_string : Nf_lang.P4lite.action -> string = function
  | Drop_packet -> "drop"
  | No_op -> "noop"
  | Decrement_ttl -> "dec_ttl"
  | Forward port -> Printf.sprintf "forward:%d" port
  | Set_field f -> "set:" ^ Nf_lang.Ast.field_name f
  | Count name -> "count:" ^ name

let quoted_list xs = "[" ^ String.concat "," (List.map (Printf.sprintf "\"%s\"") xs) ^ "]"

let program_json (p : Nf_lang.P4lite.program) =
  let table (t : Nf_lang.P4lite.table) =
    Printf.sprintf {|{"name":"%s","keys":%s,"actions":%s,"default":"%s","size":%d}|} t.t_name
      (quoted_list (List.map Nf_lang.Ast.field_name t.keys))
      (quoted_list (List.map action_string t.actions))
      (action_string t.default_action) t.size
  in
  Printf.sprintf {|{"name":"%s","tables":[%s]}|} p.p_name
    (String.concat "," (List.map table p.pipeline))

(* -- request lines --

   Every line pins its id and trace id, so all replies to one line are
   byte-identical apart from the cached/path markers: the run checks a
   handful of distinct replies per line instead of every reply. *)

let nf_line ~id ~nf =
  Printf.sprintf {|{"id":%d,"cmd":"analyze","nf":"%s","workload":"mixed","trace_id":"k%d"}|} id nf
    id

let p4lite_line ~id program =
  Printf.sprintf {|{"id":%d,"cmd":"analyze","p4lite":%s,"workload":"mixed","trace_id":"k%d"}|}
    id program id

(* Lines that must get typed errors.  id and trace_id come first so the
   server can salvage both even from text that does not parse. *)
let error_line ~id kind =
  match kind mod 3 with
  | 0 -> Printf.sprintf {|{"id":%d,"trace_id":"k%d","cmd":"analyze","p4lite":{"tables":[{"name":|} id id
  | 1 -> Printf.sprintf {|{"id":%d,"trace_id":"k%d","cmd":"analyze","nf":"no-such-nf-%d"}|} id id kind
  | _ ->
    Printf.sprintf
      {|{"id":%d,"trace_id":"k%d","cmd":"analyze","p4lite":{"tables":[{"name":"t","keys":["no_such_field"],"actions":["drop"]}]}}|}
      id id

(* -- workloads -- *)

(* What a line asks to analyze; [Error_line] lines must get typed errors. *)
type target = Nf of string | P4 of Nf_lang.P4lite.program | Error_line

type workload = {
  name : string;
  routed : bool;
  lines : string array;  (** distinct request lines; a line's index is its key *)
  targets : target array;  (** what each line asks for *)
  prime : int array;  (** keys primed during set-up *)
  rate : float;  (** open-loop arrival rate, requests per second *)
  open_s : float;  (** open-loop seconds; the rest of the run is closed loop *)
  closed_s : float;
  closed_window_s : float;  (** closed-loop capacity is read per window this long *)
  open_keys : int array;  (** key of each open-loop request, in send order *)
  open_at : float array;  (** scheduled send offset of each, seconds *)
  closed_keys : int array;  (** keys cycled through by the closed loop *)
}

let names = [ "hot-direct"; "hot-routed"; "cold-p4lite" ]

(* Both hot workloads share one rate so routed minus direct is a fair
   comparison; it sits well below the routed capacity (about 100k req/s
   on a 2-CPU machine).  The cold rate keeps one server's miss path a
   quarter to a third busy (a miss took 3 to 7 ms on a 2-CPU machine);
   it needs a longer open-loop share to collect 1,000 samples. *)
let hot_rate = 5000.0
let cold_rate = 70.0
let hot_open_share = 0.5
let cold_open_share = 0.7
let zipf_s = 1.1
let cold_pool = 256
let error_share = 0.02
let closed_len = 4096

let draws st n f = Array.init n (fun _ -> f st)

let hot ~routed ~seed ~corpus ~seconds =
  let open_s = seconds *. hot_open_share in
  let st = rng ~seed ~salt:1 in
  (* Popularity follows corpus order whatever the seed: reply sizes differ
     per NF, and a seeded ranking would make them part of the spread. *)
  let order = Array.of_list corpus in
  let lines = Array.mapi (fun id nf -> nf_line ~id ~nf) order in
  let z = zipf ~n:(Array.length lines) ~s:zipf_s in
  let open_at = poisson_schedule st ~rate:hot_rate ~duration_s:open_s in
  { name = (if routed then "hot-routed" else "hot-direct");
    routed; lines;
    targets = Array.map (fun nf -> Nf nf) order;
    prime = Array.init (Array.length lines) Fun.id;
    rate = hot_rate; open_s; closed_s = seconds -. open_s; closed_window_s = 0.25;
    open_keys = draws st (Array.length open_at) (zipf_draw z);
    open_at;
    closed_keys = draws st closed_len (zipf_draw z) }

(* The program pool is the same for every seed (the seed picks the
   stream drawn from it): analysis cost differs per program, and a seeded
   pool would make it part of the spread. *)
let pool_seed = 4099

let cold ~seed ~seconds =
  let open_s = seconds *. cold_open_share in
  let programs =
    let st = rng ~seed:pool_seed ~salt:3 in
    Array.init cold_pool (fun index -> p4lite_program st ~index)
  in
  let st = rng ~seed ~salt:2 in
  let n_err = 6 in
  let lines =
    Array.append
      (Array.mapi (fun id p -> p4lite_line ~id (program_json p)) programs)
      (Array.init n_err (fun k -> error_line ~id:(cold_pool + k) k))
  in
  let draw st =
    if Random.State.float st 1.0 < error_share then cold_pool + Random.State.int st n_err
    else Random.State.int st cold_pool
  in
  let open_at = poisson_schedule st ~rate:cold_rate ~duration_s:open_s in
  { name = "cold-p4lite"; routed = false; lines;
    targets = Array.append (Array.map (fun p -> P4 p) programs) (Array.make n_err Error_line);
    prime = [||];
    rate = cold_rate; open_s; closed_s = seconds -. open_s;
    (* a pipelined round of misses takes tens of milliseconds *)
    closed_window_s = 0.5;
    open_keys = draws st (Array.length open_at) draw;
    open_at;
    closed_keys = draws st closed_len draw }

let make name ~seed ~corpus ~seconds =
  match name with
  | "hot-direct" -> Some (hot ~routed:false ~seed ~corpus ~seconds)
  | "hot-routed" -> Some (hot ~routed:true ~seed ~corpus ~seconds)
  | "cold-p4lite" -> Some (cold ~seed ~seconds)
  | _ -> None
