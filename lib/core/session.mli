(** A server-grade session over one open database.

    This is the redesigned façade core: explicit constructors (no
    extension sniffing), a structured [('a, Error.t) result] surface
    instead of bare exceptions, and one set of optional parameters
    ([?engine ?optimize ?use_cache ?deadline_ms]) shared by every entry
    point — the CLI, the tests and {!Server} all drive this exact code
    path. The legacy [Xqp.*] functions are thin deprecated wrappers over
    it.

    A session is cheap to create and safe to share across domains for
    read-only querying: the underlying executor's artifacts (succinct
    store, statistics, content index) build lazily once, the shared plan
    cache is mutex-sharded, and metrics are atomic (DESIGN.md §11). *)

type t
type node = Xqp_xml.Document.node
type engine = Xqp_physical.Executor.strategy

(** {1 Constructors} *)

val of_document : Xqp_xml.Document.t -> t
val of_tree : Xqp_xml.Tree.t -> t

val of_string : string -> (t, Error.t) result
(** Parse an XML string (whitespace-only text stripped);
    [Error (Parse _)] on malformed input. *)

val open_db : ?domains:int -> string -> (t, Error.t) result
(** Open a packed [.xqdb] store saved by {!save}, or a [.xqdbc] corpus
    catalog written by [xqp pack --corpus]. A corpus session plans once
    against the catalog's merged path summary and scatter-gathers
    execution across shards on [domains] worker domains (default 1 =
    inline; ignored for single stores); result node ids are tagged with
    their document's ordinal, and every entry point below works
    unchanged. A single store opens in one pass through
    {!Xqp_physical.Executor.of_file}, which verifies the structure's
    balance and the packed summary. [Error (Bad_request _)] if the path
    ends in neither suffix; [Error (Io _)] on missing or corrupt files
    (["PATH: corrupt store file (…)"]). *)

val parse_file : string -> (t, Error.t) result
(** Parse an XML file. Refuses [.xqdb]/[.xqdbc] paths (use {!open_db}) —
    the old [of_file] silently switched behavior on the extension. *)

val document : t -> Xqp_xml.Document.t
val executor : t -> Xqp_physical.Executor.t

val close : t -> unit
(** Join a corpus session's worker-domain pool (no-op otherwise).
    Domains are a bounded OS resource — close corpus sessions you are
    done with; queries after [close] must not be issued. *)

val save : t -> string -> unit
(** Persist the succinct store ([.xqdb]). @raise Failure on corpus
    sessions (corpora are packed with [xqp pack]). *)

(** {1 Queries} *)

type query_result = {
  nodes : node list;  (** document order, duplicate-free *)
  engine : string;
      (** labels of the τ engines bound in the executed plan
          (["+"]-joined when mixed), or ["navigation"] *)
  cache : Xqp_physical.Executor.cache_status;
  time_ms : float;    (** wall time of compile+execute for this call *)
}

val run :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> ?deadline_ms:int ->
  t -> string -> (query_result, Error.t) result
(** Run an XPath query from the document root with full result metadata —
    what the JSON response schema is built from. [deadline_ms] bounds
    wall time; past it the result is [Error (Timeout _)]. *)

val query :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> ?deadline_ms:int ->
  t -> string -> (node list, Error.t) result
(** {!run} projected to its node list. *)

type profiled = {
  result : query_result;
  fingerprint : string;
      (** fingerprint of the executed plan's logical erasure — the
          flight-recorder store key *)
  physical : Xqp_physical.Physical_plan.t;
  ops : Xqp_physical.Executor.op_stat list;
      (** per-operator actual-vs-estimated accounting, completion order;
          collected only when a trace is enabled or [profile_ops] is set *)
  worst_q_error : float;
      (** max per-operator q-error when ops were collected, else the
          plan-level (root) q-error when the recorder is on, else [1.0] *)
  pages_read : int;
      (** pager logical reads during this call (global-counter delta:
          approximate under concurrent domains) *)
}

val run_profiled :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> ?deadline_ms:int ->
  ?trace:Xqp_obs.Trace.t -> ?profile_ops:bool -> ?recorder:Xqp_obs.Flight_recorder.t ->
  t -> string -> (profiled, Error.t) result
(** {!run} plus the observability side channels (DESIGN.md §13): when
    [recorder] (default {!Xqp_obs.Flight_recorder.default}) is enabled,
    every outcome that compiled a plan — including timeouts — is folded
    into it as one plan-level sample (fingerprint off the plan cache,
    rows, pages, root q-error) cheap enough for the always-on OBSREC
    gate. Per-operator stats — [ops], wall time and actual-vs-estimated
    per operator — are collected only when an enabled [trace] is passed
    (which wraps the run in a ["query"] span with per-operator children,
    isolated from every other request's tracer) or when [profile_ops]
    (default false) is set, as the server does while slow-query capture
    is armed. With the recorder disabled and neither armed, the executor
    runs the unobserved fast path. {!run} delegates here. *)

type xquery_result = { value : Xqp_algebra.Value.t; time_ms : float }

val run_xquery :
  ?engine:engine -> ?deadline_ms:int -> t -> string ->
  (xquery_result, Error.t) result

val run_xquery_profiled :
  ?engine:engine -> ?deadline_ms:int -> ?trace:Xqp_obs.Trace.t ->
  ?recorder:Xqp_obs.Flight_recorder.t -> t -> string ->
  (xquery_result, Error.t) result
(** {!run_xquery} with recorder/trace plumbing. XQuery plans carry no
    logical fingerprint, so the recorder keys them by source text
    (["xquery:<source>"]); the request trace gets one query-level span. *)

val xquery :
  ?engine:engine -> ?deadline_ms:int -> t -> string ->
  (Xqp_algebra.Value.t, Error.t) result

val xquery_string :
  ?engine:engine -> ?deadline_ms:int -> t -> string -> (string, Error.t) result
(** {!xquery} followed by XML serialization of the result sequence. *)

(** {1 Results} *)

val node_string : ?indent:int -> t -> node -> string
(** One node serialized the way results travel on the wire: elements as
    XML, attributes as [@name="value"], text as its content. *)

val to_xml : ?indent:int -> t -> node list -> string
val text : t -> node -> string

val xquery_result_strings : t -> Xqp_algebra.Value.t -> string list
(** One serialized string per result item (the XQuery analogue of
    {!node_string} over a node list). *)

(** {1 Explain} *)

type explain = {
  rendered : string;  (** the human-readable report *)
  cache : Xqp_physical.Executor.cache_status;
      (** whether {e this} compilation hit the shared plan cache — the
          pre-redesign explain recompiled from scratch and could
          disagree with what [query] actually ran *)
  estimate : float option;       (** estimated result rows (single-pattern plans) *)
  estimate_source : string option;  (** provenance: ["exact"]/["bound"]/["stats"] *)
  chosen : string;               (** cost-model engine choice, or ["navigation"] *)
  physical : Xqp_physical.Physical_plan.t;  (** the plan that [query] executes *)
}

val explain :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> t -> string ->
  (explain, Error.t) result
(** Compile through the same cached path as {!query} and report the plan,
    this call's cache outcome, and the estimate with provenance. *)
