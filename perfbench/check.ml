(* The correctness oracle: every distinct reply the topology sent is
   compared with an in-process Serve.Server.handle_request on the same
   bundle, modulo the Serve.Replay mask (id, trace_id, cached, path).  It
   runs after the timed window. *)

type outcome = {
  checked : int;  (** distinct replies compared *)
  bad : int;  (** replies (with repeats) that failed the check *)
  notes : string list;  (** one line per failing distinct reply *)
}

let expect_ok (target : Gen.target) = match target with Error_line -> false | Nf _ | P4 _ -> true

(* One outcome per table; the tables share the oracle's replies. *)
let run ~models ~(wl : Gen.workload) (tables : Load.replies list) =
  let server = Serve.Server.create models in
  let expected = Hashtbl.create 64 in
  let expected_of key =
    match Hashtbl.find_opt expected key with
    | Some e -> e
    | None ->
      let e = Serve.Replay.normalize (Serve.Server.handle_request server wl.lines.(key)) in
      Hashtbl.add expected key e;
      e
  in
  List.map
    (fun (tbl : Load.replies) ->
      let checked = ref 0 and bad = ref 0 and notes = ref [] in
      let fail key (v : Load.variant) why =
        bad := !bad + v.count;
        notes := Printf.sprintf "line %d (%d replies): %s: %s" key v.count why v.sample :: !notes
      in
      Hashtbl.iter
        (fun (key, _) (v : Load.variant) ->
          incr checked;
          let exp = expected_of key in
          let ok_field = Topo.contains v.sample {|"ok":true|} in
          if Serve.Replay.normalize v.sample <> exp then fail key v "differs from in-process reply"
          else if ok_field <> expect_ok wl.targets.(key) then
            fail key v (if ok_field then "wanted a typed error" else "unexpected error reply"))
        tbl;
      { checked = !checked; bad = !bad; notes = List.rev !notes })
    tables
