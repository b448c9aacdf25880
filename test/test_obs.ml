(* Tests for xqp_obs (json, metrics, trace, export) and its integration:
   span nesting invariants under random workloads, zero allocation while
   disabled, Chrome trace round-trips, profile actuals vs Executor.run,
   pager reset semantics and rewrite tracing. *)

open Xqp_obs
module Lp = Xqp_algebra.Logical_plan
module Ops = Xqp_algebra.Operators
module Rewrite = Xqp_algebra.Rewrite
module Executor = Xqp_physical.Executor
module Profile = Xqp_physical.Profile
module Queries = Xqp_workload.Queries

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qcheck = QCheck_alcotest.to_alcotest

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- json -------------------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.0);
        ("b", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("c", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("d", Json.Num 3.5);
        ("empty", Json.Obj []);
      ]
  in
  let s = Json.to_string v in
  check_string "fixpoint" s (Json.to_string (Json.parse s));
  let pretty = Json.to_string ~pretty:true v in
  check_string "pretty parses back" s (Json.to_string (Json.parse pretty))

let test_json_escapes () =
  (match Json.parse "\"\\u00e9A\"" with
  | Json.Str s -> check_string "\\u escape is UTF-8 encoded" "\xc3\xa9A" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.parse "\"\\\"\\\\\\n\\t\"" with
  | Json.Str s -> check_string "control escapes" "\"\\\n\t" s
  | _ -> Alcotest.fail "expected a string");
  check_bool "rejects garbage" true
    (match Json.parse "{broken" with
    | exception Json.Parse_error _ -> true
    | _ -> false)

(* --- metrics ------------------------------------------------------------ *)

let test_metrics_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  check_int "counter" 42 (Metrics.value c);
  check_int "same handle" 42 (Metrics.value (Metrics.counter reg "test.counter"));
  let g = Metrics.gauge reg "test.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram reg "test.histogram" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 100.0 ];
  let s = Metrics.summary h in
  check_int "histogram count" 3 s.Metrics.count;
  Alcotest.(check (float 0.0)) "histogram sum" 103.0 s.Metrics.sum;
  check_bool "kind mismatch raises" true
    (match Metrics.gauge reg "test.counter" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let names = List.map fst (Metrics.snapshot reg) in
  check_bool "snapshot sorted" true (names = List.sort compare names);
  check_int "snapshot size" 3 (List.length names);
  check_bool "find counter" true (Metrics.find reg "test.counter" = Some (Metrics.Counter_v 42));
  Metrics.reset reg;
  check_int "reset zeroes but keeps the handle" 0 (Metrics.value c);
  Metrics.incr c;
  check_int "handle still live after reset" 1 (Metrics.value c)

let test_metrics_dump_deterministic () =
  (* The TSV dump and the pretty printer must not depend on registration
     order: registering in reverse-alphabetical order still yields rows
     sorted by metric name, identical across dumps. *)
  let reg = Metrics.create () in
  List.iter (fun n -> Metrics.incr (Metrics.counter reg n)) [ "z.last"; "m.mid"; "a.first" ];
  Metrics.set (Metrics.gauge reg "q.gauge") 1.5;
  let tsv = Metrics.to_tsv reg in
  let names =
    List.filter_map
      (fun line -> match String.index_opt line '\t' with
        | Some i -> Some (String.sub line 0 i)
        | None -> None)
      (String.split_on_char '\n' tsv)
  in
  check_bool "tsv rows sorted by name" true (names = List.sort String.compare names);
  check_int "all metrics dumped" 4 (List.length names);
  check_string "dump is stable" tsv (Metrics.to_tsv reg);
  let pp_dump = Format.asprintf "%a" Metrics.pp reg in
  check_string "pp is stable" pp_dump (Format.asprintf "%a" Metrics.pp reg)

(* --- trace ring and nesting --------------------------------------------- *)

(* A random tree of spans: at each node open a span, recurse into the
   children, close. The record must balance: every span's interval inside
   its parent's, depth = parent depth + 1, parents (smaller ids) first. *)
let rec gen_tree depth =
  let open QCheck2.Gen in
  if depth = 0 then pure []
  else list_size (int_range 0 3) (gen_tree (depth - 1) >|= fun children -> `Node children)

let rec run_tree tr trees =
  List.iter
    (fun (`Node children) -> Trace.with_span tr "node" (fun _ -> run_tree tr children))
    trees

let rec count_nodes trees =
  List.fold_left (fun acc (`Node children) -> acc + 1 + count_nodes children) 0 trees

(* Chrome trace JSON prints ts/dur with millinanosecond precision
   (Json.num_to_string uses %.3f on microseconds), so a parent and child
   endpoint that round in opposite directions can disagree by up to 1 ns
   after a round-trip. Containment is therefore checked with a 2 ns
   slack; ids and depths stay exact. *)
let balance_violation events =
  let eps = 2e-9 in
  let bad fmt = Printf.ksprintf Option.some fmt in
  let span (e : Trace.event) =
    Printf.sprintf "%s#%d(parent=%d depth=%d t0=%.9f t1=%.9f)" e.Trace.name e.Trace.id
      e.Trace.parent e.Trace.depth e.Trace.t0 e.Trace.t1
  in
  List.fold_left
    (fun acc (e : Trace.event) ->
      match acc with
      | Some _ -> acc
      | None ->
        if e.Trace.t1 < e.Trace.t0 -. eps then bad "negative span %s" (span e)
        else if e.Trace.parent = -1 then
          if e.Trace.depth = 0 then None else bad "root at depth %d: %s" e.Trace.depth (span e)
        else (
          match
            List.find_opt (fun (p : Trace.event) -> p.Trace.id = e.Trace.parent) events
          with
          | None -> bad "missing parent: %s" (span e)
          | Some p ->
            if p.Trace.id >= e.Trace.id then bad "parent not older: %s under %s" (span e) (span p)
            else if e.Trace.depth <> p.Trace.depth + 1 then
              bad "depth gap: %s under %s" (span e) (span p)
            else if e.Trace.t0 < p.Trace.t0 -. eps || e.Trace.t1 > p.Trace.t1 +. eps then
              bad "interval escapes parent: %s under %s" (span e) (span p)
            else None))
    None events

let events_balance events = Option.is_none (balance_violation events)

let test_span_nesting_qcheck =
  QCheck2.Test.make ~name:"random span trees balance" ~count:100 (gen_tree 4) (fun trees ->
      let tr = Trace.create () in
      Trace.set_enabled tr true;
      run_tree tr trees;
      let events = Trace.events tr in
      List.length events = count_nodes trees && events_balance events)

let test_unclosed_spans_balance () =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  let outer = Trace.start tr "outer" in
  let _inner = Trace.start tr "inner" in
  (* finishing the outer span must close the forgotten inner one first *)
  Trace.finish tr outer;
  let events = Trace.events tr in
  check_int "both recorded" 2 (List.length events);
  check_bool "balanced" true (events_balance events);
  match events with
  | [ o; i ] ->
    check_string "outer first" "outer" o.Trace.name;
    check_int "inner nested under outer" o.Trace.id i.Trace.parent
  | _ -> Alcotest.fail "expected exactly two events"

let test_ring_overflow () =
  let tr = Trace.create ~capacity:4 () in
  Trace.set_enabled tr true;
  for _ = 1 to 10 do
    Trace.with_span tr "s" (fun _ -> ())
  done;
  check_int "ring keeps capacity" 4 (List.length (Trace.events tr));
  check_int "dropped counted" 6 (Trace.dropped tr);
  let ids = List.map (fun (e : Trace.event) -> e.Trace.id) (Trace.events tr) in
  check_bool "newest survive in order" true (ids = [ 6; 7; 8; 9 ]);
  Trace.clear tr;
  check_int "clear restarts" 0 (List.length (Trace.events tr) + Trace.dropped tr)

let test_disabled_tracer_no_allocation () =
  let tr = Trace.create () in
  let body _ = 7 in
  (* warm up so the closure and any one-time setup are allocated *)
  ignore (Trace.with_span tr "warm" body);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Trace.with_span tr "hot" body))
  done;
  let w1 = Gc.minor_words () in
  (* the measurement itself allocates a couple of boxed floats; anything
     beyond that means the disabled path allocates per call *)
  check_bool
    (Printf.sprintf "disabled with_span allocates nothing per call (%.0f words)" (w1 -. w0))
    true
    (w1 -. w0 < 100.0);
  check_int "nothing recorded" 0 (List.length (Trace.events tr))

let test_trace_dropped_metric () =
  (* ring overflow is visible globally, not only via the per-tracer
     accessor: every lost span bumps trace.dropped in the default
     registry *)
  let c = Metrics.counter Metrics.default "trace.dropped" in
  let before = Metrics.value c in
  let tr = Trace.create ~capacity:2 () in
  Trace.set_enabled tr true;
  for _ = 1 to 5 do
    Trace.with_span tr "s" (fun _ -> ())
  done;
  check_int "tracer-local dropped" 3 (Trace.dropped tr);
  check_int "global trace.dropped delta" (before + 3) (Metrics.value c)

(* --- flight recorder ----------------------------------------------------- *)

let fr_sample ?(fingerprint = "T(q)") ?(query = "//q") ?(latency_ms = 1.0) ?(rows = 3)
    ?(cache_hit = false) ?(failed = false) ?(deadline_missed = false) ?(q_error = 1.0) () =
  {
    Flight_recorder.fingerprint;
    query;
    mode = "xpath";
    latency_ms;
    rows;
    pages_read = 2;
    cache_hit;
    deadline_missed;
    failed;
    worst_q_error = q_error;
  }

let test_flight_recorder_aggregates () =
  let r = Flight_recorder.create () in
  check_bool "recorders start enabled" true (Flight_recorder.enabled r);
  List.iter
    (Flight_recorder.record r)
    [
      fr_sample ~latency_ms:1.0 ();
      fr_sample ~latency_ms:3.0 ~cache_hit:true ~q_error:5.5 ();
      fr_sample ~latency_ms:2.0 ~failed:true ~deadline_missed:true ~rows:0 ();
      fr_sample ~fingerprint:"T(p)" ~query:"//p" ~latency_ms:10.0 ();
    ];
  check_int "two fingerprints" 2 (List.length (Flight_recorder.stats r));
  let st =
    List.find
      (fun s -> s.Flight_recorder.st_fingerprint = "T(q)")
      (Flight_recorder.stats r)
  in
  check_int "count" 3 st.Flight_recorder.st_count;
  check_int "errors" 1 st.Flight_recorder.st_errors;
  check_int "cache hits" 1 st.Flight_recorder.st_cache_hits;
  check_int "deadline misses" 1 st.Flight_recorder.st_deadline_misses;
  check_bool "total latency" true (Float.abs (st.Flight_recorder.st_total_ms -. 6.0) < 1e-9);
  check_bool "max latency" true (st.Flight_recorder.st_max_ms = 3.0);
  check_bool "worst q-error" true (st.Flight_recorder.st_worst_q_error = 5.5);
  check_int "rows summed" 6 st.Flight_recorder.st_rows;
  (* percentiles are log2-bucket upper bounds: 1, 2 and 3 ms land in
     buckets whose bounds bracket the true medians *)
  check_bool "p50 sane" true
    (st.Flight_recorder.st_p50_ms >= 1.0 && st.Flight_recorder.st_p50_ms <= 4.0);
  check_bool "p99 sane" true (st.Flight_recorder.st_p99_ms >= st.Flight_recorder.st_p50_ms);
  (match Flight_recorder.top ~k:1 ~by:`Count r with
  | [ first ] -> check_string "top by count" "T(q)" first.Flight_recorder.st_fingerprint
  | _ -> Alcotest.fail "top ~k:1 must yield one entry");
  (match Flight_recorder.top ~k:1 ~by:`Total_ms r with
  | [ first ] -> check_string "top by total" "T(p)" first.Flight_recorder.st_fingerprint
  | _ -> Alcotest.fail "top ~k:1 must yield one entry");
  check_bool "by_of_string" true
    (Flight_recorder.by_of_string "q_error" = Some `Q_error
    && Flight_recorder.by_of_string "nope" = None);
  (* disabling short-circuits record *)
  Flight_recorder.set_enabled r false;
  Flight_recorder.record r (fr_sample ());
  let st' =
    List.find
      (fun s -> s.Flight_recorder.st_fingerprint = "T(q)")
      (Flight_recorder.stats r)
  in
  check_int "disabled recorder records nothing" 3 st'.Flight_recorder.st_count

let test_flight_recorder_capacity_and_reset () =
  let r = Flight_recorder.create ~shards:1 ~capacity:4 () in
  for i = 1 to 10 do
    Flight_recorder.record r (fr_sample ~fingerprint:(Printf.sprintf "f%d" i) ())
  done;
  check_int "store capped per shard" 4 (List.length (Flight_recorder.stats r));
  check_int "refusals counted" 6 (Flight_recorder.dropped r);
  (* an admitted fingerprint still accumulates after the cap is hit *)
  Flight_recorder.record r (fr_sample ~fingerprint:"f1" ());
  let f1 =
    List.find (fun s -> s.Flight_recorder.st_fingerprint = "f1") (Flight_recorder.stats r)
  in
  check_int "known fingerprint accumulates" 2 f1.Flight_recorder.st_count;
  check_int "no new refusal for a known key" 6 (Flight_recorder.dropped r);
  Flight_recorder.reset r;
  check_int "reset empties the store" 0 (List.length (Flight_recorder.stats r));
  check_int "reset zeroes dropped" 0 (Flight_recorder.dropped r);
  check_int "reset empties the ring" 0 (List.length (Flight_recorder.slow r))

let test_flight_recorder_slow_ring () =
  let r = Flight_recorder.create ~slow_capacity:3 () in
  let cap i =
    {
      Flight_recorder.cap_request_id = Printf.sprintf "r-%d" i;
      cap_sample = fr_sample ();
      cap_plan = "tau //q";
      cap_ops =
        [
          {
            Flight_recorder.op_path = "0";
            op_label = "tau(1v)";
            op_engine = Some "nok";
            op_est_rows = 4.0;
            op_actual_rows = 3;
            op_ms = 0.2;
          };
        ];
      cap_events = [];
      cap_wall = 0.0;
    }
  in
  for i = 1 to 5 do
    Flight_recorder.capture r (cap i)
  done;
  let ids =
    List.map (fun c -> c.Flight_recorder.cap_request_id) (Flight_recorder.slow r)
  in
  check_bool "most recent first, oldest evicted" true (ids = [ "r-5"; "r-4"; "r-3" ]);
  (* the JSON rendering carries plan and per-operator rows *)
  let json = Json.to_string (Flight_recorder.capture_to_json (cap 5)) in
  check_bool "capture json has plan and operators" true
    (contains json "tau //q" && contains json "\"actual_rows\":3" && contains json "\"est_rows\":4")

(* --- prometheus HELP lines ---------------------------------------------- *)

let test_prometheus_help_lines () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "help.counter");
  Metrics.set (Metrics.gauge reg "help.gauge") 1.0;
  Metrics.observe (Metrics.histogram reg "help.hist") 2.0;
  let lines = String.split_on_char '\n' (Export.to_prometheus reg) in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let typed = List.filter (starts "# TYPE ") lines in
  let helped = List.filter (starts "# HELP ") lines in
  check_int "one HELP per TYPE" (List.length typed) (List.length helped);
  check_int "all three kinds typed" 3 (List.length typed);
  (* each TYPE line is immediately preceded by the HELP line for the
     same exposition name *)
  let name l = List.nth (String.split_on_char ' ' l) 2 in
  let rec walk = function
    | h :: t :: rest when starts "# TYPE " t ->
      check_bool "HELP precedes TYPE" true (starts "# HELP " h);
      check_string "same metric name" (name t) (name h);
      walk (t :: rest)
    | _ :: rest -> walk rest
    | [] -> ()
  in
  walk lines

(* --- chrome export round-trip ------------------------------------------- *)

let sample_events () =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  Trace.with_span tr ~attrs:[ ("q", Trace.Str "//a[b]") ] "query" (fun outer ->
      Trace.add_attrs outer [ ("out", Trace.Int 3) ];
      Trace.with_span tr "step" (fun s ->
          Trace.add_attrs s
            [ ("f", Trace.Float 1.5); ("flag", Trace.Bool true); ("in", Trace.Int 12) ]));
  Trace.events tr

let test_chrome_round_trip () =
  let events = sample_events () in
  let json = Export.to_chrome_json events in
  (match Json.parse json with
  | Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.Arr l) ->
      check_int "metadata + one event per span" (1 + List.length events) (List.length l)
    | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "top level not an object");
  let back = Export.of_chrome_json json in
  check_int "same span count" (List.length events) (List.length back);
  List.iter2
    (fun (a : Trace.event) (b : Trace.event) ->
      check_int "id" a.Trace.id b.Trace.id;
      check_int "parent" a.Trace.parent b.Trace.parent;
      check_int "depth" a.Trace.depth b.Trace.depth;
      check_string "name" a.Trace.name b.Trace.name;
      check_bool "attrs survive" true (a.Trace.attrs = b.Trace.attrs))
    events back;
  (* exporting the parsed events again is a fixpoint *)
  check_string "export fixpoint" json (Export.to_chrome_json back)

let test_export_tsv_and_tree () =
  let events = sample_events () in
  let tsv = Export.to_tsv events in
  (match String.split_on_char '\n' (String.trim tsv) with
  | header :: rows ->
    check_bool "tsv header" true (contains header "id\tparent\tdepth");
    check_int "tsv rows" (List.length events) (List.length rows)
  | [] -> Alcotest.fail "empty tsv");
  let tree = Format.asprintf "%a" Export.pp_profile_tree events in
  check_bool "tree mentions both spans" true (contains tree "query" && contains tree "step");
  check_bool "tree shows attributes" true (contains tree "in=12")

(* --- profile / --analyze ------------------------------------------------- *)

let auction_exec () = Executor.create (Xqp_workload.Gen_auction.packed ~scale:300 ())

let test_analyze_matches_run () =
  let exec = auction_exec () in
  let context = [ Ops.document_context ] in
  List.iter
    (fun (q : Queries.query) ->
      let plan = Rewrite.optimize (Xqp_xpath.Parser.parse q.Queries.xpath) in
      let expected = Executor.run exec plan ~context in
      let actual, rows = Profile.analyze exec plan ~context in
      check_bool (q.Queries.id ^ " same nodes") true (expected = actual);
      (* rows come in execution order: the last row is the whole plan *)
      (match List.rev rows with
      | last :: _ ->
        check_string "root path" "0" last.Profile.path;
        check_int
          (q.Queries.id ^ " root actual")
          (List.length expected)
          (Option.value ~default:(-1) last.Profile.actual_rows);
        check_bool (q.Queries.id ^ " root timed") true (last.Profile.time_ms <> None)
      | [] -> Alcotest.fail "no rows");
      (* every operator row was matched to a recorded span *)
      List.iter
        (fun (r : Profile.row) ->
          check_bool
            (q.Queries.id ^ " row measured at " ^ r.Profile.path)
            true (r.Profile.actual_rows <> None))
        rows)
    (Queries.auction_paths @ Queries.auction_complexity_sweep)

let test_analyze_restores_tracer () =
  let exec = auction_exec () in
  let plan = Rewrite.optimize (Xqp_xpath.Parser.parse "//person/name") in
  check_bool "tracer off before" false (Trace.enabled Trace.default);
  let _ = Profile.analyze exec plan ~context:[ Ops.document_context ] in
  check_bool "tracer off after" false (Trace.enabled Trace.default)

(* --- pager reset semantics ---------------------------------------------- *)

let test_pager_reset_stats_keeps_pool_warm () =
  let module P = Xqp_storage.Pager in
  let pager = P.create ~page_size:64 ~pool_pages:8 () in
  P.read pager ~region:0 ~off:0 ~len:256;
  let cold = P.stats pager in
  check_int "cold faults" 4 cold.P.physical_reads;
  P.reset_stats pager;
  let zeroed = P.stats pager in
  check_int "counters zeroed" 0 zeroed.P.logical_reads;
  P.read pager ~region:0 ~off:0 ~len:256;
  let warm = P.stats pager in
  check_int "warm run hits the pool" 4 warm.P.hits;
  check_int "no faults after reset_stats" 0 warm.P.physical_reads;
  (* reset (not reset_stats) also empties the pool *)
  P.reset pager;
  P.read pager ~region:0 ~off:0 ~len:256;
  check_int "reset runs cold again" 4 (P.stats pager).P.physical_reads

(* --- rewrite tracing ----------------------------------------------------- *)

let test_rewrite_tracing () =
  let plan = Xqp_xpath.Parser.parse "/site/people/person[address/city][profile]/name" in
  let plain = Rewrite.optimize plan in
  let traced, fires = Rewrite.optimize_traced plan in
  check_bool "traced result identical" true (Lp.equal plain traced);
  check_bool "fusion fired" true
    (List.exists (fun f -> f.Rewrite.rule = "fuse-steps-into-tau") fires);
  List.iter
    (fun f ->
      check_bool "stage named" true (f.Rewrite.stage = "simplify" || f.Rewrite.stage = "fuse");
      check_bool "op counts positive" true (f.Rewrite.before_ops > 0 && f.Rewrite.after_ops > 0);
      if f.Rewrite.rule = "fuse-steps-into-tau" then
        check_bool "fusion reduces operators" true (f.Rewrite.after_ops < f.Rewrite.before_ops))
    fires;
  (* the collapse rule fires on an explicit descendant-or-self step
     (the parser desugars plain [//] straight to the descendant axis) *)
  let _, fires2 = Rewrite.optimize_traced (Xqp_xpath.Parser.parse "/descendant-or-self::*/item/name") in
  check_bool "collapse fired" true
    (List.exists (fun f -> f.Rewrite.rule = "collapse-desc-or-self-child") fires2);
  (* tracing is per-call, not accumulated in a global *)
  let _, fires3 = Rewrite.optimize_traced plan in
  check_int "no accumulation across calls" (List.length fires) (List.length fires3)

let test_metric_emission_from_engines () =
  let c = Metrics.counter Metrics.default "engine.navigation.nodes_visited" in
  let before = Metrics.value c in
  let exec = auction_exec () in
  let _ = Executor.query exec ~strategy:Executor.Navigation "/site/people/person/name" in
  check_bool "navigation emitted nodes_visited" true (Metrics.value c > before)

(* --- open-path spans ------------------------------------------------------ *)

let test_open_path_spans () =
  let path = Filename.temp_file "xqp_open" ".xqdb" in
  Xqp_storage.Store_io.save
    (Xqp_storage.Succinct_store.of_document (Xqp_workload.Gen_auction.packed ~scale:200 ()))
    path;
  let opens = Metrics.histogram Metrics.default "session.open_ms" in
  let before = (Metrics.summary opens).Metrics.count in
  let tr = Trace.default in
  Trace.clear tr;
  Trace.set_enabled tr true;
  let events =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled tr false;
        Sys.remove path)
      (fun () ->
        ignore (Executor.of_file path);
        Trace.events tr)
  in
  Trace.clear tr;
  let find name =
    match List.find_opt (fun (e : Trace.event) -> e.Trace.name = name) events with
    | Some e -> e
    | None -> Alcotest.failf "no %s span" name
  in
  let root = find "session.open" in
  check_int "session.open is a root" (-1) root.Trace.parent;
  List.iter
    (fun name -> check_int (name ^ " nested under session.open") root.Trace.id (find name).Trace.parent)
    [ "storage.load"; "xml.of_store"; "physical.stats_build" ];
  check_int "session.open_ms observed" (before + 1) (Metrics.summary opens).Metrics.count

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json round trip" `Quick test_json_round_trip;
        Alcotest.test_case "json escapes" `Quick test_json_escapes;
        Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
        Alcotest.test_case "metrics dump deterministic" `Quick test_metrics_dump_deterministic;
        qcheck test_span_nesting_qcheck;
        Alcotest.test_case "unclosed spans balance" `Quick test_unclosed_spans_balance;
        Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
        Alcotest.test_case "disabled tracer allocates nothing" `Quick
          test_disabled_tracer_no_allocation;
        Alcotest.test_case "trace.dropped metric" `Quick test_trace_dropped_metric;
        Alcotest.test_case "flight recorder aggregates" `Quick test_flight_recorder_aggregates;
        Alcotest.test_case "flight recorder capacity and reset" `Quick
          test_flight_recorder_capacity_and_reset;
        Alcotest.test_case "flight recorder slow ring" `Quick test_flight_recorder_slow_ring;
        Alcotest.test_case "prometheus HELP lines" `Quick test_prometheus_help_lines;
        Alcotest.test_case "chrome export round trip" `Quick test_chrome_round_trip;
        Alcotest.test_case "tsv and profile tree" `Quick test_export_tsv_and_tree;
        Alcotest.test_case "analyze matches Executor.run" `Quick test_analyze_matches_run;
        Alcotest.test_case "analyze restores tracer" `Quick test_analyze_restores_tracer;
        Alcotest.test_case "pager reset_stats keeps pool warm" `Quick
          test_pager_reset_stats_keeps_pool_warm;
        Alcotest.test_case "rewrite tracing" `Quick test_rewrite_tracing;
        Alcotest.test_case "engines emit metrics" `Quick test_metric_emission_from_engines;
        Alcotest.test_case "open-path spans" `Quick test_open_path_spans;
      ] );
  ]
