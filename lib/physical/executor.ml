module Doc = Xqp_xml.Document
module Store = Xqp_storage.Succinct_store
module Lp = Xqp_algebra.Logical_plan
module Pg = Xqp_algebra.Pattern_graph
module Ops = Xqp_algebra.Operators
module Pp = Physical_plan
module Ps = Xqp_storage.Path_summary
module Store_io = Xqp_storage.Store_io
module Tr = Xqp_obs.Trace
module M = Xqp_obs.Metrics

type t = {
  id : int;
  document : Doc.t;
  store_lazy : Store.t Lazy.t;
  summary : Ps.t option; (* the packed summary statistics derive from *)
  mutable stats_lazy : Statistics.t Lazy.t;
  mutable stats_version : int;
  engine_guard : Xqp_obs.Dsan.guard;
  engine_cache : (Pg.t, Cost_model.engine) Hashtbl.t;
  content_index_lazy : Content_index.t Lazy.t;
  mutable hints_lazy : Navigation.hints Lazy.t;
}

type strategy = Pp.strategy =
  | Reference
  | Navigation
  | Nok
  | Pathstack
  | Twigstack
  | Binary_default
  | Binary_best
  | Auto

let strategy_name = Pp.strategy_name
let all_strategies = Pp.all_strategies
let strategy_of_string = Pp.strategy_of_string

let next_id = Atomic.make 0

let create ?pager ?store ?summary document =
  let stats_lazy = lazy (Statistics.build ?summary document) in
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    document;
    store_lazy =
      (match store with
      | Some store -> Lazy.from_val store
      | None -> lazy (Store.of_document ?pager document));
    summary;
    stats_lazy;
    stats_version = 0;
    engine_guard = Xqp_obs.Dsan.guard "Executor.engine_cache";
    engine_cache = Hashtbl.create 16;
    content_index_lazy = lazy (Content_index.build document);
    hints_lazy =
      lazy (Navigation.make_hints document (Statistics.summary (Lazy.force stats_lazy)));
  }

(* A planning-only executor whose statistics are injected rather than
   derived from a document — the corpus path plans against the catalog's
   merged summary this way. The placeholder document exists only so the
   record is total; running a plan on this executor would answer over the
   empty placeholder, so corpus callers execute on per-document executors
   instead. [stats_version] (the catalog's merged stats version) keys the
   shared plan cache alongside the fresh executor id. *)
let create_planner ?(stats_version = 0) stats =
  let document = Doc.of_tree (Xqp_xml.Tree.elt "xqp:corpus" []) in
  let t = create document in
  t.stats_lazy <- lazy stats;
  t.stats_version <- stats_version;
  t

(* --- opening a packed store ---------------------------------------------- *)

let m_open_ms = M.histogram M.default "session.open_ms"

(* One pass from the packed sections to a ready executor: the Document is
   built straight from the loaded store, which NoK then reads as is, and
   statistics derive from the packed summary, checked against the
   document while path ids are assigned. Building the statistics here
   rather than lazily is what makes a tampered synopsis an open error
   instead of a wrong first answer. *)
let open_image ?pager ~path read =
  let t0 = Unix.gettimeofday () in
  let tr = Tr.default in
  let t =
    Tr.with_span tr "session.open" (fun _ ->
        let store, summary =
          Tr.with_span tr "storage.load" (fun _ ->
              let image = read () in
              (Store_io.load_bytes ?pager ~path image, Store_io.packed_summary ~path image))
        in
        match
          let document = Tr.with_span tr "xml.of_store" (fun _ -> Store.to_document store) in
          let t = create ~store ~summary document in
          Tr.with_span tr "physical.stats_build" (fun _ -> ignore (Lazy.force t.stats_lazy));
          t
        with
        | t -> t
        | exception Failure what -> Store_io.corrupt path what)
  in
  M.observe m_open_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
  t

let of_image ?pager ~path image = open_image ?pager ~path (fun () -> image)
let of_file ?pager path = open_image ?pager ~path (fun () -> Store_io.read_file path)

let id t = t.id
let doc t = t.document
let store t = Lazy.force t.store_lazy
let statistics t = Lazy.force t.stats_lazy
let stats_version t = t.stats_version
let content_index t = Lazy.force t.content_index_lazy

let refresh_statistics t =
  t.stats_lazy <- lazy (Statistics.build ?summary:t.summary t.document);
  t.stats_version <- t.stats_version + 1;
  Xqp_obs.Dsan.with_guard t.engine_guard (fun () -> Hashtbl.reset t.engine_cache);
  let stats_lazy = t.stats_lazy in
  t.hints_lazy <-
    lazy (Navigation.make_hints t.document (Statistics.summary (Lazy.force stats_lazy)))

let hints t = Lazy.force t.hints_lazy

(* Path-partition pruning for the stack engines: a vertex's candidate
   stream keeps only nodes whose summary path id lies in the vertex's
   matched summary-node set. Only sound when matching starts at the
   document root — the summary projects paths from there. *)
let summary_prune t pattern ~context =
  if context <> [ Ops.document_context ] then None
  else begin
    let stats = statistics t in
    let summary = Statistics.summary stats in
    let per_vertex =
      Array.init (Pg.vertex_count pattern) (fun v ->
          match Statistics.vertex_summary_nodes stats pattern v with
          | None -> None
          | Some ids ->
            let marks = Array.make (Ps.length summary) false in
            List.iter (fun i -> if i >= 0 then marks.(i) <- true) ids;
            Some (marks, List.mem Ps.super_root ids))
    in
    Some
      (fun v ->
        match per_vertex.(v) with
        | None -> None
        | Some (marks, has_super) ->
          Some
            (fun rank ->
              (* the virtual document node has no path id; it matches a
                 vertex exactly when the projection kept the super-root *)
              if rank = Ops.document_context then has_super
              else
                let pid = Statistics.path_id stats rank in
                pid >= 0 && marks.(pid)))
  end

(* The executor's memoized cost-model chooser: [Auto] resolution per
   distinct pattern is paid once per statistics version. The memo table
   is guarded — planning is compile-time, so serializing the costing of
   one pattern across domains is cheap and keeps the table coherent;
   a racing duplicate computation would be benign but is avoided. *)
let cached_choose t pattern =
  match
    Xqp_obs.Dsan.with_guard t.engine_guard (fun () ->
        Hashtbl.find_opt t.engine_cache pattern)
  with
  | Some engine -> engine
  | None ->
    let engine = Cost_model.choose (statistics t) pattern in
    Xqp_obs.Dsan.with_guard t.engine_guard (fun () ->
        Hashtbl.replace t.engine_cache pattern engine);
    engine

let effective_strategy t strategy pattern =
  Planner.effective ~choose:(cached_choose t) strategy pattern

(* --- debug plan verification ------------------------------------------- *)

let verify_plans =
  Atomic.make
    (match Sys.getenv_opt "XQP_VERIFY_PLANS" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

exception Ill_sorted of string

(* --- deadlines ----------------------------------------------------------- *)

exception Deadline_exceeded

let check_deadline = function
  | None -> ()
  | Some d -> if Unix.gettimeofday () > d then raise Deadline_exceeded

(* The sort checker wants the kinds of the context nodes, which we know
   exactly here: the virtual document node plus the kinds of every real
   context node. *)
let context_kinds doc context =
  let module Pc = Xqp_analysis.Plan_check in
  Pc.kinds
    (List.sort_uniq compare
       (List.map
          (fun id ->
            if id = Ops.document_context then Pc.Doc_node
            else
              match Doc.kind doc id with
              | Doc.Element -> Pc.Element
              | Doc.Attribute -> Pc.Attribute
              | Doc.Text | Doc.Comment | Doc.Pi -> Pc.Text)
          context))

let verify_physical t physical ~context =
  (* Estimates live on the operator, the binding on the tau; collect both
     in execution order. *)
  let rec tau_summaries p acc =
    match p.Pp.op with
    | Pp.Root | Pp.Context | Pp.Empty _ -> acc
    | Pp.Step (base, _) -> tau_summaries base acc
    | Pp.Tau (base, tau) ->
      tau_summaries base acc
      @ [
          {
            Xqp_analysis.Lint.tau_pattern = tau.Pp.pattern;
            tau_engine = Pp.engine_label tau.Pp.engine;
            tau_supported = Planner.supports (Pp.engine_strategy tau.Pp.engine) tau.Pp.pattern;
            tau_estimate = p.Pp.est_rows;
          };
        ]
    | Pp.Union (a, b) -> tau_summaries b (tau_summaries a acc)
  in
  let diags =
    Xqp_analysis.Lint.check_physical
      ~context:(context_kinds t.document context)
      ~logical:(Pp.to_logical physical) (tau_summaries physical [])
  in
  if Xqp_analysis.Diagnostic.has_errors diags then
    raise
      (Ill_sorted
         (Format.asprintf "plan rejected by the physical checker:@.%a"
            Xqp_analysis.Diagnostic.pp_report diags))

(* --- compilation -------------------------------------------------------- *)

let compile t ?(strategy = Auto) ?(context_card = 1.0) plan =
  Planner.compile ~strategy ~context_card ~choose:(cached_choose t) (statistics t) plan

(* One process-wide cache: plans are small and keys carry the executor's
   identity, so sharing beats per-executor bookkeeping. Entries carry the
   logical fingerprint alongside the compiled plan — the flight recorder
   keys its per-query aggregates by fingerprint on every admitted
   request, and computing it at compile time makes it free on the cache
   hits that dominate a warm server. *)
let shared_plan_cache : (Pp.t * string) Plan_cache.t = Plan_cache.create ~capacity:256 ()

type cache_status = Cache_hit | Cache_miss | Cache_bypassed

let cache_status_label = function
  | Cache_hit -> "hit"
  | Cache_miss -> "miss"
  | Cache_bypassed -> "bypassed"

let cache_key t ~strategy ~optimize query =
  {
    Plan_cache.query;
    optimize;
    strategy = strategy_name strategy;
    doc_id = t.id;
    stats_version = t.stats_version;
  }

(* The status is observed on this call's own lookup, not inferred from
   the global hit counters, so concurrent compilations on other domains
   can never mis-attribute a hit. *)
let with_cache t ~strategy ~optimize ~use_cache query build =
  if not use_cache then (build (), Cache_bypassed)
  else begin
    let key = cache_key t ~strategy ~optimize query in
    match Plan_cache.find shared_plan_cache key with
    | Some physical -> (physical, Cache_hit)
    | None ->
      let physical = build () in
      Plan_cache.add shared_plan_cache key physical;
      (physical, Cache_miss)
  end

(* Unlike queries, a plan handed to us as a value is compiled {e as
   given} when [optimize] is false — [run] must execute exactly the plan
   it received. The cache key is the fingerprint of the input plan, so a
   hit also skips the rewriting when [optimize] is set. *)
let compile_plan_fp t ?(strategy = Auto) ?(optimize = false) ?(use_cache = true) plan =
  let (physical, fp), status =
    with_cache t ~strategy ~optimize ~use_cache ("plan:" ^ Lp.fingerprint plan) (fun () ->
        let plan = if optimize then Xqp_algebra.Rewrite.optimize plan else plan in
        (compile t ~strategy plan, Lp.fingerprint plan))
  in
  (physical, fp, status)

let compile_plan_info t ?strategy ?optimize ?use_cache plan =
  let physical, _, status = compile_plan_fp t ?strategy ?optimize ?use_cache plan in
  (physical, status)

let compile_plan t ?strategy ?optimize ?use_cache plan =
  fst (compile_plan_info t ?strategy ?optimize ?use_cache plan)

let compile_query_fp t ?(strategy = Auto) ?(optimize = true) ?(use_cache = true) path =
  let (physical, fp), status =
    with_cache t ~strategy ~optimize ~use_cache path (fun () ->
        let plan = Xqp_xpath.Parser.parse path in
        let plan =
          if optimize then Xqp_algebra.Rewrite.optimize plan
          else Xqp_algebra.Rewrite.simplify plan
        in
        (compile t ~strategy plan, Lp.fingerprint plan))
  in
  (physical, fp, status)

let compile_query_info t ?strategy ?optimize ?use_cache path =
  let physical, _, status = compile_query_fp t ?strategy ?optimize ?use_cache path in
  (physical, status)

let compile_query t ?strategy ?optimize ?use_cache path =
  fst (compile_query_info t ?strategy ?optimize ?use_cache path)

(* --- execution ---------------------------------------------------------- *)

(* τ dispatch is a direct jump to the bound engine: every decision —
   engine, join order, index use, step expansion — was fixed by the
   planner, so nothing here consults the cost model or resolves [Auto]. *)
let run_tau t (tau : Pp.tau) ~context =
  match tau.Pp.engine with
  | Pp.Reference_match -> Ops.pattern_match t.document tau.Pp.pattern ~context
  | Pp.Nok_store ->
    Nok.match_pattern
      ?prune:(summary_prune t tau.Pp.pattern ~context)
      t.document (store t) tau.Pp.pattern ~context
  | Pp.Path_stack_join ->
    Path_stack.match_pattern
      ?prune:(summary_prune t tau.Pp.pattern ~context)
      t.document tau.Pp.pattern ~context
  | Pp.Twig_stack_join -> Twig_stack.match_pattern t.document tau.Pp.pattern ~context
  | Pp.Binary_semijoin { use_index } ->
    let index = if use_index then Some (content_index t) else None in
    Binary_join.match_pattern ?content_index:index t.document tau.Pp.pattern ~context
  | Pp.Binary_ordered order ->
    (* semijoin reduction is order-insensitive; the "best order" strategy
       matters for the tuple-materializing mode *)
    fst (Binary_join.evaluate_with_order t.document tau.Pp.pattern ~context ~order)
  | Pp.Navigation_steps plan ->
    let nodes = Navigation.eval_plan ~hints:(hints t) t.document plan ~context in
    let output = match Pg.outputs tau.Pp.pattern with v :: _ -> v | [] -> 0 in
    [ (output, nodes) ]

let run_pattern t strategy pattern ~context =
  run_tau t (Planner.compile_tau ~choose:(cached_choose t) (statistics t) strategy pattern)
    ~context

(* --- instrumented physical-plan interpretation -------------------------- *)

(* The storage counters whose per-operator deltas become span attributes
   (DESIGN.md §7). Registration is get-or-create, so the handles are the
   same objects the storage layer bumps. *)
let io_counters =
  List.map
    (fun name -> (name, M.counter M.default name))
    [
      "pager.logical_reads";
      "pager.physical_reads";
      "pager.hits";
      "pool.requests";
      "pool.page_faults";
      "pool.hits";
    ]

(* Per-operator actual-vs-estimated accounting for the flight recorder:
   [run_physical ~stats] collects one row per operator; meaningful
   producers (τ and Step) also feed the process-wide q-error histogram
   and the misestimate counter, the executor-side signal that calibration
   (content histograms, ROADMAP item 2) consumes. *)
type op_stat = {
  os_path : string;
  os_op : string;
  os_engine : string option;
  os_est : float;
  os_actual : int;
  os_q : float;
  os_ms : float;
}

let m_q_error = M.histogram M.default "executor.q_error"
let m_misestimates = M.counter M.default "executor.misestimates"

(* q-error as in [xqp calibrate]: both sides floored at one row, so
   empty-vs-empty is a perfect 1.0. *)
let q_error est actual =
  let est = Float.max 1.0 est and act = Float.max 1.0 (float_of_int actual) in
  Float.max (est /. act) (act /. est)

let misestimate_threshold = 4.0

(* Plan-level accounting for the always-on recorder path, which skips
   per-operator [op_stat] rows to stay inside its overhead budget
   (DESIGN.md §13): one q-error for the whole plan — root estimate vs
   rows returned — folded into the same histogram and misestimate
   counter the per-operator path feeds. *)
let plan_q_error (physical : Pp.t) ~actual =
  let q = q_error physical.Pp.est_rows actual in
  M.observe m_q_error q;
  if q > misestimate_threshold then M.incr m_misestimates;
  q

(* When a deadline is set, a long [Step] over many context nodes is
   evaluated in batches so the cooperative check fires between batches,
   not only between operators. Union-of-batches preserves semantics: a
   single step's result is the dedup/sorted union of per-context-node
   results, which [eval_plan] already produces per batch. *)
let step_batch = 256

let run_physical t ?deadline ?(trace = Tr.default) ?stats physical ~context =
  check_deadline deadline;
  if Atomic.get verify_plans then verify_physical t physical ~context;
  let tr = trace in
  let collecting = stats <> None in
  (* One span per plan operator. [path] names the operator's position in
     the plan tree ("0" = the whole plan, children at "<path>.<i>") with
     the same scheme as [Profile.rows_of_physical], so --analyze can join
     estimated and measured rows. When neither tracing nor collecting,
     this is a bool check and a direct call. *)
  let instr path (p : Pp.t) f =
    let tracing = Tr.enabled tr in
    (* Root/Context/Empty do no measurable work; when only the recorder
       is collecting (no request trace) their stat rows are pure
       overhead, so they take the direct path. A trace still spans every
       operator — the tree shape matters there. *)
    let trivial =
      match p.Pp.op with Pp.Root | Pp.Context | Pp.Empty _ -> true | _ -> false
    in
    if (not tracing) && ((not collecting) || trivial) then f Tr.null_span
    else begin
      let before =
        if tracing then List.map (fun (_, c) -> M.value c) io_counters else []
      in
      let t0 = if collecting then Unix.gettimeofday () else 0.0 in
      let after span out =
        if tracing then begin
          let deltas =
            List.filter_map
              (fun ((name, c), v0) ->
                let d = M.value c - v0 in
                if d = 0 then None else Some (name, Tr.Int d))
              (List.combine io_counters before)
          in
          Tr.add_attrs span (("out", Tr.Int (List.length out)) :: deltas)
        end;
        (match stats with
        | None -> ()
        | Some acc ->
          let actual = List.length out in
          let q =
            match p.Pp.op with
            | Pp.Tau _ | Pp.Step _ ->
              let q = q_error p.Pp.est_rows actual in
              M.observe m_q_error q;
              if q > misestimate_threshold then M.incr m_misestimates;
              q
            | Pp.Root | Pp.Context | Pp.Empty _ | Pp.Union _ -> 1.0
          in
          let engine =
            match p.Pp.op with
            | Pp.Tau (_, tau) -> Some (Pp.engine_label tau.Pp.engine)
            | _ -> None
          in
          acc :=
            {
              os_path = path;
              os_op = Pp.op_label p;
              os_engine = engine;
              os_est = p.Pp.est_rows;
              os_actual = actual;
              os_q = q;
              os_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
            }
            :: !acc);
        out
      in
      if tracing then
        Tr.with_span tr
          ~attrs:[ ("path", Tr.Str path); ("est", Tr.Float p.Pp.est_rows) ]
          (Pp.op_label p)
          (fun span -> after span (f span))
      else after Tr.null_span (f Tr.null_span)
    end
  in
  let rec go path (p : Pp.t) ctx =
    check_deadline deadline;
    instr path p (fun span ->
        match p.Pp.op with
        | Pp.Root -> [ Ops.document_context ]
        | Pp.Empty _ -> []
        | Pp.Union (a, b) ->
          List.sort_uniq compare (go (path ^ ".0") a ctx @ go (path ^ ".1") b ctx)
        | Pp.Context -> List.sort_uniq compare ctx
        | Pp.Step (base, s) ->
          let base_nodes = go (path ^ ".0") base ctx in
          if Tr.enabled tr then Tr.add_attrs span [ ("in", Tr.Int (List.length base_nodes)) ];
          let eval_step nodes =
            Navigation.eval_plan ~hints:(hints t) t.document (Lp.Step (Lp.Context, s))
              ~context:nodes
          in
          if deadline = None || List.compare_length_with base_nodes step_batch <= 0 then
            eval_step base_nodes
          else begin
            let split_at k nodes =
              let rec take acc k = function
                | rest when k = 0 -> (List.rev acc, rest)
                | [] -> (List.rev acc, [])
                | x :: rest -> take (x :: acc) (k - 1) rest
              in
              take [] k nodes
            in
            let rec batches acc nodes =
              check_deadline deadline;
              match nodes with
              | [] -> List.sort_uniq compare (List.concat acc)
              | _ ->
                let batch, rest = split_at step_batch nodes in
                batches (eval_step batch :: acc) rest
            in
            batches [] base_nodes
          end
        | Pp.Tau (base, tau) -> (
          let base_nodes = go (path ^ ".0") base ctx in
          if Tr.enabled tr then
            Tr.add_attrs span
              [
                ("in", Tr.Int (List.length base_nodes));
                ("engine", Tr.Str (Pp.engine_label tau.Pp.engine));
              ];
          match run_tau t tau ~context:base_nodes with
          | [ (_, nodes) ] -> nodes
          | several -> List.sort_uniq compare (List.concat_map snd several)))
  in
  go "0" physical context

let run t ?(strategy = Auto) ?deadline plan ~context =
  run_physical t ?deadline (compile_plan t ~strategy plan) ~context

let query t ?(strategy = Auto) ?(optimize = true) ?(use_cache = true) ?deadline path =
  run_physical t ?deadline
    (compile_query t ~strategy ~optimize ~use_cache path)
    ~context:[ Ops.document_context ]
