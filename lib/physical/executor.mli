(** Plan execution: a thin driver over compiled {!Physical_plan}s.

    An executor bundles a packed document with the lazily-built artifacts
    the engines need (the succinct store for NoK, statistics for the cost
    model, the content index). All planning — engine selection, join
    orders, fallbacks, estimates — happens once in {!compile} (via
    {!Planner}); {!run_physical} just interprets the resulting IR, never
    consulting the cost model or resolving [Auto]. {!query} and
    {!compile_query} memoize compiled plans in a process-wide
    {!Plan_cache}, so repeated queries skip parsing, rewriting and
    costing entirely. *)

type t

type strategy = Physical_plan.strategy =
  | Reference   (** the algebra's executable specification *)
  | Navigation  (** naive navigational evaluation (τ expanded to steps) *)
  | Nok         (** NoK fragments over the succinct store *)
  | Pathstack   (** holistic path join on chains; TwigStack fallback *)
  | Twigstack
  | Binary_default (** binary structural joins, arcs in pattern order *)
  | Binary_best    (** binary joins in the cost-model-chosen order *)
  | Auto           (** cost-model choice per pattern, resolved at compile time *)

val create :
  ?pager:Xqp_storage.Pager.t ->
  ?store:Xqp_storage.Succinct_store.t ->
  ?summary:Xqp_storage.Path_summary.t ->
  Xqp_xml.Document.t ->
  t
(** Store and statistics are built lazily on first use. [store] is an
    already loaded succinct store of the same document, which NoK then
    reads instead of re-linearizing it; [summary] is the document's path
    summary, from which statistics are derived (and against which they
    are checked) instead of recomputing it. When [pager] is given, a
    store built here charges its accesses to it, so the simulated I/O
    counters ([pager.*] in [Xqp_obs.Metrics.default]) are live during
    execution — [explain --analyze] and the bench harness attach one; the
    default path stays pager-free. *)

val of_image : ?pager:Xqp_storage.Pager.t -> path:string -> string -> t
(** [of_image ~path image] opens a packed [.xqdb] image in one pass: the
    document is built straight from the loaded store
    ({!Xqp_storage.Succinct_store.to_document}), the store is kept for NoK,
    and statistics are built from the packed path summary, which is
    verified against the document on the way. [path] labels errors;
    [pager] is attached to the loaded store. Traced as [session.open] ⊃
    [storage.load], [xml.of_store], [physical.stats_build] in
    [Xqp_obs.Trace.default]; the duration feeds the [session.open_ms]
    histogram of [Xqp_obs.Metrics.default].
    @raise Failure ["PATH: corrupt store file (…)"] on an unbalanced
    structure, a summary that does not match the document, or any error
    {!Xqp_storage.Store_io.load_bytes} reports. *)

val of_file : ?pager:Xqp_storage.Pager.t -> string -> t
(** {!of_image} of a file's contents, the read included in
    [storage.load]. @raise Sys_error when the file cannot be read. *)

val create_planner : ?stats_version:int -> Statistics.t -> t
(** A planning-only executor with injected statistics (typically
    {!Statistics.of_summary} over a catalog's merged summary) and a
    placeholder document: compile against it, never execute on it —
    corpus sessions run the compiled plan on per-document executors.
    [stats_version] (default 0) becomes the plan-cache key component, so
    a repacked catalog with a new merged stats version misses the cache
    as it must. *)

val id : t -> int
(** Process-unique identity of this executor (and hence its document) —
    the [doc_id] component of {!Plan_cache.key}s. *)

val verify_plans : bool Atomic.t
(** Debug gate: when set, {!run_physical} checks every compiled plan with
    {!Xqp_analysis.Lint.check_physical} (sort inference over the logical
    erasure against the actual context-node kinds, plus per-τ binding
    invariants) and raises {!Ill_sorted} instead of executing an
    ill-formed plan. Initialized from the [XQP_VERIFY_PLANS] environment
    variable ([1]/[true]/[yes]). *)

exception Ill_sorted of string
(** Raised under {!verify_plans}; the message is the rendered diagnostic
    report. *)

exception Deadline_exceeded
(** Raised by {!run_physical} (and everything layered on it) when the
    [?deadline] passes: the drive loop checks cooperatively before every
    operator and, under a deadline, between 256-node batches of a [Step]'s
    context, so a runaway query surfaces as this exception rather than
    holding its domain indefinitely. Individual τ engine invocations are
    not interrupted mid-match. *)

val check_deadline : float option -> unit
(** [check_deadline (Some d)] raises {!Deadline_exceeded} when
    [Unix.gettimeofday () > d]; [None] is free. Exposed so cooperative
    layers above the executor (the XQuery interpreter, the server) share
    one clock and one exception. *)

val doc : t -> Xqp_xml.Document.t
val store : t -> Xqp_storage.Succinct_store.t
val statistics : t -> Statistics.t

val stats_version : t -> int
(** Bumped by {!refresh_statistics}; part of the plan-cache key, so plans
    costed against stale statistics are never served. *)

val refresh_statistics : t -> unit
(** Drop the memoized statistics (rebuilt lazily on next use), bump
    {!stats_version} and clear the per-pattern engine memo — cached plans
    for this executor become unreachable. *)

val content_index : t -> Content_index.t
(** The value index over attribute and simple-element content (built
    lazily; the binary-join engine consults it for covered string
    predicates). *)

val compile :
  t -> ?strategy:strategy -> ?context_card:float -> Xqp_algebra.Logical_plan.t ->
  Physical_plan.t
(** Compile a logical plan as given (no rewriting, no caching):
    {!Planner.compile} with this executor's statistics and memoized
    engine chooser. *)

type cache_status = Cache_hit | Cache_miss | Cache_bypassed
(** How a compiled plan was obtained, observed on the call's own cache
    lookup (never inferred from the global counters, so concurrent
    domains cannot mis-attribute). *)

val cache_status_label : cache_status -> string
(** ["hit"] / ["miss"] / ["bypassed"] — the strings the JSON response
    schema and [explain] print. *)

val compile_plan :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool ->
  Xqp_algebra.Logical_plan.t -> Physical_plan.t
(** Cached compilation keyed by the plan's
    {!Xqp_algebra.Logical_plan.fingerprint}. [optimize] (default false)
    applies R0+R1/R2 rewriting first — a cache hit skips that too. *)

val compile_plan_info :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool ->
  Xqp_algebra.Logical_plan.t -> Physical_plan.t * cache_status
(** {!compile_plan} plus whether this call hit, missed or bypassed the
    shared plan cache. *)

val compile_query :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> string ->
  Physical_plan.t
(** Cached compilation keyed by the query text: parse, rewrite
    ([optimize] default true: R0+R1/R2; otherwise R0 only), compile. *)

val compile_query_info :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> string ->
  Physical_plan.t * cache_status
(** {!compile_query} plus this call's cache outcome — what [explain] and
    the server's response schema report. *)

val compile_query_fp :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> string ->
  Physical_plan.t * string * cache_status
(** {!compile_query_info} plus the logical fingerprint of the plan that
    was compiled — the flight recorder's aggregation key. The
    fingerprint is computed once at compile time and stored in the plan
    cache, so on the cache hits that dominate a warm server it costs a
    tuple projection, not a plan render (DESIGN.md §13). *)

type op_stat = {
  os_path : string;    (** plan-tree path, "0", "0.1", … *)
  os_op : string;      (** operator label *)
  os_engine : string option;  (** bound engine for τ operators *)
  os_est : float;      (** the IR's [est_rows] annotation *)
  os_actual : int;     (** rows actually produced *)
  os_q : float;        (** q-error for τ/Step (both sides floored at 1), else 1.0 *)
  os_ms : float;       (** wall time inside the operator (children incl.) *)
}
(** One per-operator accounting row collected by [run_physical ~stats],
    in completion order (children precede parents). *)

val plan_q_error : Physical_plan.t -> actual:int -> float
(** Plan-level q-error — the root operator's [est_rows] against the rows
    the whole plan returned, both sides floored at one row — folded into
    the [executor.q_error] histogram and [executor.misestimates]
    counter. The always-on recorder path uses this instead of
    per-operator [op_stat] collection, which stays reserved for request
    traces and armed slow-query capture (DESIGN.md §13). *)

val run_physical :
  t -> ?deadline:float -> ?trace:Xqp_obs.Trace.t -> ?stats:op_stat list ref ->
  Physical_plan.t -> context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list
(** Interpret a compiled plan: each operator gets a span (when [trace] —
    default {!Xqp_obs.Trace.default} — is enabled) carrying its tree
    [path], the IR's [est] annotation, input/output cardinalities, the
    bound [engine] for τ, and storage-counter deltas. Passing a
    request-scoped [trace] keeps concurrent requests' span trees
    isolated (DESIGN.md §13). When [stats] is given, every operator
    appends an {!op_stat} row to it, and τ/Step operators feed the
    [executor.q_error] histogram and [executor.misestimates] counter
    (q-error > 4) in {!Xqp_obs.Metrics.default}. Dispatch reads the
    baked-in bindings only — no cost model, no [Auto], no fallback
    decisions at run time. [deadline] is an absolute [Unix.gettimeofday]
    instant; past it the drive loop raises {!Deadline_exceeded} at the
    next cooperative check. *)

val run_pattern :
  t -> strategy -> Xqp_algebra.Pattern_graph.t ->
  context:Xqp_xml.Document.node list -> (int * Xqp_xml.Document.node list) list
(** Evaluate τ with a specific engine (per-output-vertex sets): binds the
    pattern with {!Planner.compile_tau} and dispatches. *)

val effective_strategy : t -> strategy -> Xqp_algebra.Pattern_graph.t -> strategy
(** The engine {!run_pattern} will actually use for this pattern: [Auto]
    resolved through the cost model, capability fallbacks applied
    ({!Planner.effective}). Never returns [Auto]. *)

val run :
  t -> ?strategy:strategy -> ?deadline:float -> Xqp_algebra.Logical_plan.t ->
  context:Xqp_xml.Document.node list -> Xqp_xml.Document.node list
(** [run_physical] ∘ [compile_plan] (the plan executes as given; the
    compiled form is cached by fingerprint). The result is the
    document-ordered distinct node list of the plan's final operator. *)

val query :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> ?deadline:float ->
  string -> Xqp_xml.Document.node list
(** [run_physical] ∘ [compile_query] from the document root. With the
    cache warm (default [use_cache:true]) this skips parsing, rewriting
    and planning. *)

val strategy_name : strategy -> string

val all_strategies : strategy list
(** The concrete engines (everything except [Reference] and [Auto]). *)

val strategy_of_string : string -> (strategy, string) result
(** Inverse of {!strategy_name} (see {!Physical_plan.strategy_of_string});
    the error message lists the valid names. *)
