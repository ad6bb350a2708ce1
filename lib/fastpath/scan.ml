(** Non-allocating request-line scanner (see scan.mli). *)

(* The fast path must never accept a line the full parser would reject,
   or reject-to-slow-path differently than [Jsonl.of_string] would — the
   two routes answer byte-identically only if they agree on what a
   request means.  So the scanner recognizes a *strict subset* of the
   JSONL grammar: one flat object whose keys and string values contain no
   escapes and whose numbers use a conservative charwise shape that
   [float_of_string] always accepts.  Anything else — nested [p4lite]
   programs, escaped strings, exotic numbers, malformed text — answers
   [false] / [None] and the caller takes the slow path. *)

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

let skip_ws s n i =
  let i = ref i in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  !i

(* [i] just after the opening quote of a *simple* string: no backslash,
   no control chars.  Returns the index of the closing quote, or -1. *)
let simple_string_end s n i =
  let i = ref i in
  let bad = ref false in
  while (not !bad) && !i < n && s.[!i] <> '"' do
    if s.[!i] = '\\' || Char.code s.[!i] < 0x20 then bad := true else incr i
  done;
  if !bad || !i >= n then -1 else !i

(* strict number: -?digits(.digits)?([eE][+-]?digits)? — a subset of what
   [float_of_string] accepts.  Returns the index past the number, or -1. *)
let number_end s n i =
  let i = ref i in
  if !i < n && s.[!i] = '-' then incr i;
  let d0 = !i in
  while !i < n && is_digit s.[!i] do
    incr i
  done;
  if !i = d0 then -1
  else begin
    (if !i < n && s.[!i] = '.' then begin
       incr i;
       let d1 = !i in
       while !i < n && is_digit s.[!i] do
         incr i
       done;
       if !i = d1 then i := -1
     end);
    if !i >= 0 && !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
      incr i;
      if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
      let d2 = !i in
      while !i < n && is_digit s.[!i] do
        incr i
      done;
      if !i = d2 then i := -1
    end;
    !i
  end

(* Do the [len] bytes of [s] at [off] equal [lit]?  Compared in place. *)
let bytes_are s off len lit =
  len = String.length lit
  &&
  let k = ref 0 in
  while !k < len && s.[off + !k] = lit.[!k] do
    incr k
  done;
  !k = len

let literal_end s n i word =
  let l = String.length word in
  if i + l <= n && bytes_are s i l word then i + l else -1

(* Span of one simple value starting at [i]; -1 if not simple. *)
let value_end s n i =
  if i >= n then -1
  else
    match s.[i] with
    | '"' ->
      let stop = simple_string_end s n (i + 1) in
      if stop < 0 then -1 else stop + 1
    | 't' -> literal_end s n i "true"
    | 'f' -> literal_end s n i "false"
    | 'n' -> literal_end s n i "null"
    | '-' | '0' .. '9' -> number_end s n i
    | _ -> -1

(* Walk the flat-object grammar; [f st s key_off key_len val_off val_len]
   per member.  Returns true iff the whole line matches the subset.  The
   state argument lets a caller pass a closed top-level [f], so the walk
   itself allocates nothing. *)
let walk st s f =
  let n = String.length s in
  let i = skip_ws s n 0 in
  if i >= n || s.[i] <> '{' then false
  else begin
    let i = ref (skip_ws s n (i + 1)) in
    let ok = ref true in
    if !i < n && s.[!i] = '}' then incr i
    else begin
      let continue = ref true in
      while !ok && !continue do
        (* key *)
        if !i >= n || s.[!i] <> '"' then ok := false
        else begin
          let koff = !i + 1 in
          let kend = simple_string_end s n koff in
          if kend < 0 then ok := false
          else begin
            i := skip_ws s n (kend + 1);
            if !i >= n || s.[!i] <> ':' then ok := false
            else begin
              i := skip_ws s n (!i + 1);
              let voff = !i in
              let vend = value_end s n voff in
              if vend < 0 then ok := false
              else begin
                f st s koff (kend - koff) voff (vend - voff);
                i := skip_ws s n vend;
                if !i < n && s.[!i] = ',' then i := skip_ws s n (!i + 1)
                else if !i < n && s.[!i] = '}' then begin
                  incr i;
                  continue := false
                end
                else ok := false
              end
            end
          end
        end
      done
    end;
    !ok && skip_ws s n !i = n
  end

let simple_object s = walk () s (fun () _ _ _ _ _ -> ())

let member s key =
  let found = ref None in
  let ok =
    walk () s (fun () s koff klen voff vlen ->
        if !found = None && bytes_are s koff klen key then found := Some (voff, vlen))
  in
  if ok then !found else None

let span_is s (off, len) lit = bytes_are s off len lit

let string_contents s (off, len) =
  if len >= 2 && s.[off] = '"' && s.[off + len - 1] = '"' then Some (off + 1, len - 2) else None

(* Would [Jsonl.to_string (parse span)] reproduce the raw bytes?  Simple
   strings and the literals round-trip by construction; numbers only when
   they are plain integers short enough that float -> "%.0f" is exact. *)
let canonical_scalar_at s off len =
  if len = 0 then false
  else
    match s.[off] with
    | '"' -> s.[off + len - 1] = '"' && len >= 2
    | 't' -> bytes_are s off len "true"
    | 'f' -> bytes_are s off len "false"
    | 'n' -> bytes_are s off len "null"
    | '-' | '0' .. '9' ->
      let doff = if s.[off] = '-' then off + 1 else off in
      let dlen = len - (doff - off) in
      dlen > 0 && dlen <= 15
      && (s.[doff] <> '0' || dlen = 1)
      &&
      let all = ref true in
      for k = doff to off + len - 1 do
        if not (is_digit s.[k]) then all := false
      done;
      !all
    | _ -> false

let canonical_scalar s (off, len) = canonical_scalar_at s off len

(* -- the analyze classifier --

   One walk over the line records the raw value span of the first
   occurrence of each member the fast path cares about (first wins, as in
   [member] and [Jsonl.member]); [classify] then applies the eligibility
   rules to those spans.  The record is caller-owned scratch, so a
   classification writes ints into it and allocates nothing. *)

type analyze = {
  (* raw value spans from the walk; offset -1 = member absent *)
  mutable cmd_off : int;
  mutable cmd_len : int;
  mutable op_off : int;
  mutable op_len : int;
  mutable p4lite : bool;
  mutable nf_off : int;
  mutable nf_len : int;
  mutable wl_off : int;
  mutable wl_len : int;
  mutable id_off : int;
  mutable id_len : int;
  mutable trace_off : int;
  mutable trace_len : int;
  mutable tenant_off : int;
  mutable tenant_len : int;
  (* resolved by [classify] *)
  mutable workload : string;
}

let analyze () =
  { cmd_off = -1; cmd_len = 0; op_off = -1; op_len = 0; p4lite = false; nf_off = -1;
    nf_len = 0; wl_off = -1; wl_len = 0; id_off = -1; id_len = 0; trace_off = -1;
    trace_len = 0; tenant_off = -1; tenant_len = 0; workload = "mixed" }

let reset r =
  r.cmd_off <- -1;
  r.op_off <- -1;
  r.p4lite <- false;
  r.nf_off <- -1;
  r.wl_off <- -1;
  r.id_off <- -1;
  r.trace_off <- -1;
  r.tenant_off <- -1

(* Closed, so passing it to [walk] allocates no closure. *)
let record_member r s koff klen voff vlen =
  if klen > 0 then
    match s.[koff] with
    | 'c' ->
      if r.cmd_off < 0 && bytes_are s koff klen "cmd" then begin
        r.cmd_off <- voff;
        r.cmd_len <- vlen
      end
    | 'o' ->
      if r.op_off < 0 && bytes_are s koff klen "op" then begin
        r.op_off <- voff;
        r.op_len <- vlen
      end
    | 'p' -> if bytes_are s koff klen "p4lite" then r.p4lite <- true
    | 'n' ->
      if r.nf_off < 0 && bytes_are s koff klen "nf" then begin
        r.nf_off <- voff;
        r.nf_len <- vlen
      end
    | 'w' ->
      if r.wl_off < 0 && bytes_are s koff klen "workload" then begin
        r.wl_off <- voff;
        r.wl_len <- vlen
      end
    | 'i' ->
      if r.id_off < 0 && bytes_are s koff klen "id" then begin
        r.id_off <- voff;
        r.id_len <- vlen
      end
    | 't' ->
      if r.trace_off < 0 && bytes_are s koff klen "trace_id" then begin
        r.trace_off <- voff;
        r.trace_len <- vlen
      end
      else if r.tenant_off < 0 && bytes_are s koff klen "tenant" then begin
        r.tenant_off <- voff;
        r.tenant_len <- vlen
      end
    | _ -> ()

let is_string s off len = len >= 2 && s.[off] = '"' && s.[off + len - 1] = '"'

(* The workload names the server knows, as shared constants. *)
let workload_const s off len =
  if bytes_are s off len "mixed" then "mixed"
  else if bytes_are s off len "large" then "large"
  else if bytes_are s off len "small" then "small"
  else ""

let classify r s =
  reset r;
  (not (Obs.Fault.armed "jsonl.parse"))
  && walk r s record_member
  && (if r.cmd_off >= 0 then bytes_are s r.cmd_off r.cmd_len "\"analyze\""
      else r.op_off >= 0 && bytes_are s r.op_off r.op_len "\"analyze\"")
  && (not r.p4lite)
  && r.nf_off >= 0
  && is_string s r.nf_off r.nf_len
  && begin
    (* spans become contents spans from here on *)
    r.nf_off <- r.nf_off + 1;
    r.nf_len <- r.nf_len - 2;
    if r.wl_off < 0 then r.workload <- "mixed"
    else if is_string s r.wl_off r.wl_len then
      r.workload <- workload_const s (r.wl_off + 1) (r.wl_len - 2)
    else r.workload <- "";
    r.workload <> ""
  end
  && begin
    if r.id_off < 0 then begin
      r.id_off <- 0;
      r.id_len <- 0;
      true
    end
    else canonical_scalar_at s r.id_off r.id_len
  end
  && begin
    if r.trace_off < 0 then true
    else if is_string s r.trace_off r.trace_len then begin
      r.trace_off <- r.trace_off + 1;
      r.trace_len <- r.trace_len - 2;
      true
    end
    else false
  end
  &&
  (if r.tenant_off >= 0 then
     if is_string s r.tenant_off r.tenant_len then begin
       r.tenant_off <- r.tenant_off + 1;
       r.tenant_len <- r.tenant_len - 2
     end
     else r.tenant_off <- -1;
   true)

let nf_off r = r.nf_off
let nf_len r = r.nf_len
let workload r = r.workload
let id_off r = r.id_off
let id_len r = r.id_len
let trace_off r = r.trace_off
let trace_len r = r.trace_len
let tenant_off r = r.tenant_off
let tenant_len r = r.tenant_len

let key r s =
  let wl = r.workload in
  let b = Bytes.create (r.nf_len + 1 + String.length wl) in
  Bytes.blit_string s r.nf_off b 0 r.nf_len;
  Bytes.set b r.nf_len '|';
  Bytes.blit_string wl 0 b (r.nf_len + 1) (String.length wl);
  Bytes.unsafe_to_string b
