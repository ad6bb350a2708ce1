(** Non-allocating scanner over a raw request line — the fast path's
    replacement for building an intermediate JSON tree.

    The scanner recognizes a {e strict subset} of the server's JSONL
    grammar: exactly one flat object whose keys and string values contain
    no escape sequences or control characters, and whose numbers have a
    conservative shape [float_of_string] always accepts.  Every line the
    scanner accepts, {!Serve.Jsonl.of_string} parses to the same members;
    every line outside the subset (nested values such as [p4lite]
    programs, escaped strings, malformed text) is reported as such and
    the caller falls back to the full parser.  Spans are [(offset, len)]
    pairs into the original line, so extracting a member allocates
    nothing beyond the pair. *)

(** Is the line inside the scanner's subset? *)
val simple_object : string -> bool

(** Raw-value span of the first depth-1 member named [key]; [None] when
    the member is absent {e or} the line is outside the subset. *)
val member : string -> string -> (int * int) option

(** Do the raw bytes of the span equal [lit] (e.g. ["\"analyze\""])? *)
val span_is : string -> int * int -> string -> bool

(** Contents span of a quoted string span (drops the quotes). *)
val string_contents : string -> int * int -> (int * int) option

(** Would the raw token survive a parse/print round-trip byte-for-byte
    ([Jsonl.to_string (Jsonl.of_string raw)] = [raw])?  True for simple
    strings, [true]/[false]/[null], and plain integers of at most 15
    digits without leading zeros.  The fast path only splices such tokens
    verbatim into replies, so its ids render exactly as the slow path
    would render them. *)
val canonical_scalar : string -> int * int -> bool

(** {1 The analyze classifier}

    One allocation-free pass deciding whether a line is an [analyze]
    request the fast path may answer without building a JSON tree — the
    single classifier shared by a worker's {!Serve.Server} fast path and
    the router's front.  A line is {e eligible} when:
    - no [jsonl.parse] fault is armed (so fault-draw sequences are the
      same whether or not a cache is warm);
    - it is inside the scanner's subset;
    - its ["cmd"] (else its ["op"]) is ["analyze"] and it has no
      ["p4lite"] member;
    - ["nf"] is a string;
    - ["workload"] is absent (["mixed"]) or one of ["mixed"], ["large"],
      ["small"];
    - ["id"] is absent (renders [null]) or a {!canonical_scalar};
    - ["trace_id"] is absent (the server mints one) or a string.
    ["tenant"] never affects eligibility; its span is reported when it
    is a string.  Every eligible line means exactly what
    {!Serve.Jsonl.of_string} would make of it: first occurrence wins for
    duplicate members, as in {!member}. *)

(** Caller-owned scratch that {!classify} fills in place. *)
type analyze

val analyze : unit -> analyze

(** Classify [line] into the scratch; [true] iff eligible.  Allocates
    nothing.  The accessors below are meaningful only after [true]. *)
val classify : analyze -> string -> bool

(** Contents span of the ["nf"] string (quotes dropped). *)
val nf_off : analyze -> int

val nf_len : analyze -> int

(** ["mixed"], ["large"] or ["small"] (shared constants). *)
val workload : analyze -> string

(** Raw id token span; [id_len = 0] when the line has no id. *)
val id_off : analyze -> int

val id_len : analyze -> int

(** Contents span of ["trace_id"]; [trace_off = -1] when absent. *)
val trace_off : analyze -> int

val trace_len : analyze -> int

(** Contents span of a string ["tenant"]; [tenant_off = -1] otherwise. *)
val tenant_off : analyze -> int

val tenant_len : analyze -> int

(** The flow-cache key ["nf|workload"] — one string allocation. *)
val key : analyze -> string -> string
