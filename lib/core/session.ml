module Xml = Xqp_xml
module Storage = Xqp_storage
module Algebra = Xqp_algebra
module Physical = Xqp_physical
module Executor = Physical.Executor
module Ops = Algebra.Operators
module Pp = Physical.Physical_plan

module Sg = Physical.Scatter_gather

(* A session backs onto either one executor or a whole corpus. In corpus
   mode [exec] is the scatter-gather planning executor (merged-summary
   statistics, merged stats version): every compile path — query, explain,
   the plan cache — goes through it unchanged, and only execution fans
   out. Single-document callers see no difference anywhere. *)
type t = { exec : Executor.t; corpus : Sg.t option }

type node = Xml.Document.node
type engine = Executor.strategy

(* --- constructors ------------------------------------------------------- *)

let of_document doc = { exec = Executor.create doc; corpus = None }
let of_tree tree = of_document (Xml.Document.of_tree tree)

let catching_source f =
  match f () with
  | session -> Ok session
  | exception Xml.Sax.Parse_error { line; column; message } ->
    Error (Error.Parse (Printf.sprintf "%d:%d: %s" line column message))
  | exception Sys_error m -> Error (Error.Io m)
  | exception Failure m -> Error (Error.Io m)

let of_string s = catching_source (fun () -> of_document (Xml.Document.of_string ~strip:true s))

let open_db ?domains path =
  if Storage.Catalog.is_catalog_path path then
    catching_source (fun () ->
        let sg = Sg.open_catalog ?domains (Storage.Catalog.load path) in
        { exec = Sg.planner sg; corpus = Some sg })
  else if not (Filename.check_suffix path ".xqdb") then
    Error
      (Error.Bad_request
         (Printf.sprintf "%s: open_db expects a packed .xqdb store or .xqdbc catalog" path))
  else
    catching_source (fun () -> { exec = Executor.of_file path; corpus = None })

let parse_file path =
  if Filename.check_suffix path ".xqdb" || Storage.Catalog.is_catalog_path path then
    Error (Error.Bad_request (Printf.sprintf "%s: parse_file expects XML; use open_db" path))
  else catching_source (fun () -> of_tree (Xml.Xml_parser.parse_file ~strip:true path))

let document t = Executor.doc t.exec
let executor t = t.exec
let close t = Option.iter Sg.close t.corpus

let save t path =
  match t.corpus with
  | Some _ -> failwith "Session.save: corpus sessions are packed with `xqp pack`"
  | None -> Storage.Store_io.save (Executor.store t.exec) path

(* --- queries ------------------------------------------------------------- *)

type query_result = {
  nodes : node list;
  engine : string;
  cache : Executor.cache_status;
  time_ms : float;
}

(* Engines actually bound into the compiled plan, in execution order —
   the truthful "engine" field of a response (contrast the requested
   strategy, which may be [Auto]). *)
let plan_engines physical =
  let rec collect (p : Pp.t) acc =
    match p.Pp.op with
    | Pp.Root | Pp.Context | Pp.Empty _ -> acc
    | Pp.Step (base, _) -> collect base acc
    | Pp.Tau (base, tau) -> Pp.engine_label tau.Pp.engine :: collect base acc
    | Pp.Union (a, b) -> collect a (collect b acc)
  in
  match List.sort_uniq compare (collect physical []) with
  | [] -> "navigation"
  | labels -> String.concat "+" labels

let deadline_of_ms = function
  | None -> None
  | Some ms -> Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.0))

let catching_query ?deadline_ms f =
  match f () with
  | v -> Ok v
  | exception Xqp_xpath.Parser.Parse_error m -> Error (Error.Parse m)
  | exception Xqp_xpath.Lexer.Lex_error { position; message } ->
    Error (Error.Parse (Printf.sprintf "at %d: %s" position message))
  | exception Xqp_xquery.Xq_parser.Parse_error { position; message } ->
    Error (Error.Parse (Printf.sprintf "at %d: %s" position message))
  | exception Xqp_xquery.Eval.Error m -> Error (Error.Eval m)
  | exception Executor.Deadline_exceeded ->
    Error (Error.Timeout { deadline_ms = Option.value ~default:0 deadline_ms })
  | exception Failure m -> Error (Error.Internal m)

(* --- profiled queries: the flight-recorder feed -------------------------- *)

module Tr = Xqp_obs.Trace
module Fr = Xqp_obs.Flight_recorder
module M = Xqp_obs.Metrics

type profiled = {
  result : query_result;
  fingerprint : string;
  physical : Pp.t;
  ops : Executor.op_stat list;
  worst_q_error : float;
  pages_read : int;
}

(* The same handle the pager bumps; per-query page accounting is the
   delta around the run — exact single-domain, approximate when other
   domains read pages concurrently (DESIGN.md §13). *)
let m_pager_reads = M.counter M.default "pager.logical_reads"

let worst_q ops =
  List.fold_left (fun acc (o : Executor.op_stat) -> Float.max acc o.Executor.os_q) 1.0 ops

let is_timeout = function Error.Timeout _ -> true | _ -> false

(* [run] with the observability side channels: a sample folded into the
   flight recorder on every outcome that produced a plan, and the
   compiled plan + accounting exposed to the caller for slow-query
   capture.

   Collection is two-level. The always-on recorder takes a plan-level
   sample — fingerprint off the plan cache, rows, pages, one root-level
   q-error — whose cost is a few hundred nanoseconds and fits the OBSREC
   ≤2% gate. Per-operator [op_stat] rows (wall time, actual-vs-estimated
   per operator) cost two clock reads and a histogram point per
   operator, so they are collected only when a request trace is enabled
   or the caller arms [profile_ops] — the server does so exactly when
   slow-query capture ([--slow-ms]) is on. When the recorder is disabled
   and neither is armed, the executor runs the unobserved fast path —
   the recorder-off baseline the OBSREC gate compares against. *)
let run_profiled ?(engine = Executor.Auto) ?(optimize = true) ?(use_cache = true) ?deadline_ms
    ?trace ?(profile_ops = false) ?(recorder = Fr.default) t q =
  let recording = Fr.enabled recorder in
  let tracing = match trace with Some tr -> Tr.enabled tr | None -> false in
  let profiling = tracing || profile_ops in
  let collect = recording || profiling in
  let stats = if profiling then Some (ref []) else None in
  let compiled = ref None in
  let pages0 = if collect then M.value m_pager_reads else 0 in
  let t0 = Unix.gettimeofday () in
  let outcome =
    catching_query ?deadline_ms (fun () ->
        let deadline = deadline_of_ms deadline_ms in
        let physical, fingerprint, cache =
          Executor.compile_query_fp t.exec ~strategy:engine ~optimize ~use_cache q
        in
        compiled := Some (physical, cache, fingerprint);
        let execute () =
          match t.corpus with
          | None ->
            Executor.run_physical t.exec ?deadline ?trace ?stats physical
              ~context:[ Ops.document_context ]
          | Some sg ->
            (* One compiled plan, fanned across shards; per-operator rows
               come back merged across documents. *)
            let r = Sg.run sg ?deadline ?trace ~collect_ops:profiling physical in
            (match stats with Some s -> s := List.rev r.Sg.ops | None -> ());
            r.Sg.nodes
        in
        match trace with
        | Some tr when Tr.enabled tr ->
          Tr.with_span tr
            ~attrs:[ ("query", Tr.Str q); ("mode", Tr.Str "xpath") ]
            "query"
            (fun _ -> execute ())
        | _ -> execute ())
  in
  let time_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let pages_read = if collect then max 0 (M.value m_pager_reads - pages0) else 0 in
  let ops = match stats with Some r -> List.rev !r | None -> [] in
  let sample ~rows ~cache ~failed ~deadline_missed ~worst_q_error fingerprint =
    {
      Fr.fingerprint;
      query = q;
      mode = "xpath";
      latency_ms = time_ms;
      rows;
      pages_read;
      cache_hit = cache = Executor.Cache_hit;
      deadline_missed;
      failed;
      worst_q_error;
    }
  in
  match outcome with
  | Ok nodes ->
    let physical, cache, fingerprint = Option.get !compiled in
    let rows = List.length nodes in
    (* Per-op rows already fed the q-error histogram inside the
       executor; the plan-level path feeds it exactly once here. *)
    let worst_q_error =
      if profiling then worst_q ops
      else if recording then Executor.plan_q_error physical ~actual:rows
      else 1.0
    in
    if recording then
      Fr.record recorder
        (sample ~rows ~cache ~failed:false ~deadline_missed:false ~worst_q_error fingerprint);
    Ok
      {
        result = { nodes; engine = plan_engines physical; cache; time_ms };
        fingerprint;
        physical;
        ops;
        worst_q_error;
        pages_read;
      }
  | Error e ->
    (match !compiled with
    | Some (_, cache, fingerprint) when recording ->
      Fr.record recorder
        (sample ~rows:0 ~cache ~failed:true ~deadline_missed:(is_timeout e)
           ~worst_q_error:(worst_q ops) fingerprint)
    | _ -> ());
    Error e

let run ?engine ?optimize ?use_cache ?deadline_ms t q =
  Result.map
    (fun p -> p.result)
    (run_profiled ?engine ?optimize ?use_cache ?deadline_ms t q)

let query ?engine ?optimize ?use_cache ?deadline_ms t q =
  Result.map (fun r -> r.nodes) (run ?engine ?optimize ?use_cache ?deadline_ms t q)

type xquery_result = { value : Algebra.Value.t; time_ms : float }

(* XQuery plans have no logical fingerprint; the recorder keys them by
   source text. The request trace gets a single query-level span — the
   evaluator's internal executor calls still trace into [Trace.default]
   only when that tracer is explicitly enabled. *)
let run_xquery_profiled ?engine ?deadline_ms ?trace ?(recorder = Fr.default) t q =
  let recording = Fr.enabled recorder in
  let pages0 = if recording then M.value m_pager_reads else 0 in
  let t0 = Unix.gettimeofday () in
  let outcome =
    catching_query ?deadline_ms (fun () ->
        let deadline = deadline_of_ms deadline_ms in
        let eval () =
          match t.corpus with
          | None -> Xqp_xquery.Eval.eval_query t.exec ?strategy:engine ?deadline q
          | Some sg ->
            (* Corpus XQuery semantics: evaluate per document (in global
               order) and concatenate the result sequences — the
               collection()-style map. Aggregates therefore yield one item
               per document, not one corpus-wide total. *)
            let n = Sg.doc_count sg in
            let rec go ordinal acc =
              if ordinal >= n then List.concat (List.rev acc)
              else
                let value =
                  Sg.with_doc_executor sg ~ordinal (fun exec ->
                      Xqp_xquery.Eval.eval_query exec ?strategy:engine ?deadline q)
                in
                let tagged =
                  List.map
                    (function
                      | Algebra.Value.Node id -> Algebra.Value.Node (Sg.encode ~ordinal id)
                      | item -> item)
                    value
                in
                go (ordinal + 1) (tagged :: acc)
            in
            go 0 []
        in
        match trace with
        | Some tr when Tr.enabled tr ->
          Tr.with_span tr
            ~attrs:[ ("query", Tr.Str q); ("mode", Tr.Str "xquery") ]
            "query"
            (fun _ -> eval ())
        | _ -> eval ())
  in
  let time_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let record ~rows ~failed ~deadline_missed =
    if recording then
      Fr.record recorder
        {
          Fr.fingerprint = "xquery:" ^ q;
          query = q;
          mode = "xquery";
          latency_ms = time_ms;
          rows;
          pages_read = max 0 (M.value m_pager_reads - pages0);
          cache_hit = false;
          deadline_missed;
          failed;
          worst_q_error = 1.0;
        }
  in
  match outcome with
  | Ok value ->
    record ~rows:(List.length value) ~failed:false ~deadline_missed:false;
    Ok { value; time_ms }
  | Error e ->
    record ~rows:0 ~failed:true ~deadline_missed:(is_timeout e);
    Error e

let run_xquery ?engine ?deadline_ms t q = run_xquery_profiled ?engine ?deadline_ms t q

let xquery ?engine ?deadline_ms t q =
  Result.map (fun r -> r.value) (run_xquery ?engine ?deadline_ms t q)

(* --- results ------------------------------------------------------------- *)

(* Resolve a (possibly ordinal-tagged) result node to its owning document
   and within-document id. Single-document sessions pass through. *)
let owning_doc t id =
  match t.corpus with
  | None -> (document t, id)
  | Some sg ->
    let ordinal, node = Sg.decode id in
    if ordinal < 0 then (document t, id) else (Sg.document sg ~ordinal, node)

let node_string ?indent t id =
  let doc, id = owning_doc t id in
  match Xml.Document.kind doc id with
  | Xml.Document.Attribute ->
    Printf.sprintf "@%s=\"%s\"" (Xml.Document.name doc id) (Xml.Document.content doc id)
  | Xml.Document.Text -> Xml.Document.content doc id
  | _ -> Xml.Serializer.to_string ?indent (Xml.Document.to_tree doc id)

let to_xml ?indent t nodes = String.concat "" (List.map (node_string ?indent t) nodes)

let text t id =
  let doc, id = owning_doc t id in
  Xml.Document.typed_value doc id

let xquery_result_strings t value =
  match t.corpus with
  | None ->
    List.map
      (fun tree -> Xml.Serializer.to_string tree)
      (Xqp_xquery.Eval.result_trees t.exec value)
  | Some sg ->
    (* Route every node item through its owning document; atoms and
       fragments carry their own data (the planner executor's placeholder
       document is never consulted for them). *)
    List.map
      (fun item ->
        let exec_for, item =
          match item with
          | Algebra.Value.Node id ->
            let ordinal, node = Sg.decode id in
            if ordinal < 0 then ((fun f -> f t.exec), item)
            else ((fun f -> Sg.with_doc_executor sg ~ordinal f), Algebra.Value.Node node)
          | _ -> ((fun f -> f t.exec), item)
        in
        exec_for (fun exec ->
            String.concat ""
              (List.map Xml.Serializer.to_string (Xqp_xquery.Eval.result_trees exec [ item ]))))
      value

let xquery_string ?engine ?deadline_ms t q =
  Result.map
    (fun v ->
      match t.corpus with
      | None -> Xqp_xquery.Eval.result_string t.exec v
      | Some _ -> String.concat "" (xquery_result_strings t v))
    (xquery ?engine ?deadline_ms t q)

(* --- explain ------------------------------------------------------------- *)

type explain = {
  rendered : string;
  cache : Executor.cache_status;
  estimate : float option;
  estimate_source : string option;
  chosen : string;
  physical : Pp.t;
}

(* Unlike the pre-redesign [Xqp.explain], this goes through
   [compile_query_info] — the identical path [query] takes — so the plan
   printed is the plan that runs, the cache outcome is this call's own,
   and the estimate carries its provenance. *)
let explain ?(engine = Executor.Auto) ?(optimize = true) ?(use_cache = true) t q =
  catching_query (fun () ->
      let buffer = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buffer in
      let module Lp = Algebra.Logical_plan in
      let module Pg = Algebra.Pattern_graph in
      let plan = Xqp_xpath.Parser.parse q in
      Format.fprintf ppf "parsed:    %a@." Lp.pp (Algebra.Rewrite.simplify plan);
      let optimized =
        if optimize then Algebra.Rewrite.optimize plan else Algebra.Rewrite.simplify plan
      in
      Format.fprintf ppf "optimized: %a@." Lp.pp optimized;
      let stats = Executor.statistics t.exec in
      let estimate, estimate_source, chosen =
        match optimized with
        | Lp.Tpm (_, pattern) ->
          Format.fprintf ppf "pattern:   %a@." Pg.pp pattern;
          Format.fprintf ppf "partition: %a@." Physical.Nok_partition.pp
            (Physical.Nok_partition.partition pattern);
          let est, src = Physical.Cost_model.estimate_plan_detail stats optimized in
          let src_label = Physical.Statistics.source_label src in
          Format.fprintf ppf "estimate:  %.1f rows (%s)@." est src_label;
          List.iter
            (fun eng ->
              if Physical.Cost_model.supports pattern eng then
                Format.fprintf ppf "cost[%s] = %.0f@."
                  (Physical.Cost_model.engine_name eng)
                  (Physical.Cost_model.estimate stats pattern eng))
            Physical.Cost_model.all_engines;
          let chosen =
            Physical.Cost_model.engine_name (Physical.Cost_model.choose stats pattern)
          in
          Format.fprintf ppf "chosen:    %s@." chosen;
          (Some est, Some src_label, chosen)
        | _ ->
          Format.fprintf ppf "(steps run navigationally)@.";
          (None, None, "navigation")
      in
      let physical, cache =
        Executor.compile_query_info t.exec ~strategy:engine ~optimize ~use_cache q
      in
      Format.fprintf ppf "plan cache: %s@." (Executor.cache_status_label cache);
      Format.fprintf ppf "physical:@.%a@." Pp.pp physical;
      Format.pp_print_flush ppf ();
      { rendered = Buffer.contents buffer; cache; estimate; estimate_source; chosen; physical })
