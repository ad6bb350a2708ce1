(* The benchmark's own spans: recorded around calls into each layer's
   public functions, kept in memory, written out when the run ends.  They
   are independent of the program's internal Obs.Span instrumentation. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds *)
  stop : float;
  parent : int;  (** -1 for a root *)
  req : int;  (** request the span belongs to; -1 when none *)
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : (int * int) list;  (** open spans: (id, req) *)
}

let create () = { spans = []; next = 0; stack = [] }

let record t ?req name f =
  let id = t.next in
  t.next <- id + 1;
  let parent, inherited = match t.stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1) in
  let req = Option.value req ~default:inherited in
  t.stack <- (id, req) :: t.stack;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; start; stop; parent; req } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let coverage ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (total +. (b -. a), b) else (total, reach))
      (0.0, lo) clipped
  in
  total

(* Self time: a span's duration minus the part of it its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start, s.stop)) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. coverage ~lo:s.start ~hi:s.stop kids))
    spans

(* Per span name: (count, total duration, total self time), seconds. *)
let by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, dur, slf = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, dur +. (s.stop -. s.start), slf +. self))
    (self_times spans);
  tbl

let write_json path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f,\"parent\":%d,\"req\":%d}\n"
        (if i = 0 then "" else ",")
        s.id s.name (s.start *. 1e6) (s.stop *. 1e6) (self *. 1e6) s.parent s.req)
    (self_times spans);
  output_string oc "]\n";
  close_out oc
