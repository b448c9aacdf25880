(* Tests for xqp_workload: deterministic generators and query workloads. *)

open Xqp_xml
open Xqp_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 8 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_prng_ranges () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    check_bool "int in range" true (x >= 0 && x < 10);
    let f = Prng.float rng 2.0 in
    check_bool "float in range" true (f >= 0.0 && f < 2.0)
  done;
  check_bool "bool 0" false (Prng.bool rng 0.0);
  check_bool "bool 1" true (Prng.bool rng 1.0);
  check_bool "geometric bounds" true (Prng.geometric rng 0.5 >= 0);
  check_bool "pick raises on empty" true
    (match Prng.pick rng [||] with exception Invalid_argument _ -> true | _ -> false)

let prop_prng_uniformish =
  QCheck2.Test.make ~name:"prng roughly uniform" ~count:20 QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let rng = Prng.create seed in
      let buckets = Array.make 4 0 in
      for _ = 1 to 400 do
        let b = Prng.int rng 4 in
        buckets.(b) <- buckets.(b) + 1
      done;
      Array.for_all (fun c -> c > 40 && c < 200) buckets)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_bib_shape () =
  let tree = Gen_bib.document ~books:50 () in
  check_string "root" "bib" (Tree.name tree);
  check_int "books" 50 (List.length (Tree.children tree));
  (* deterministic *)
  check_bool "deterministic" true (Tree.equal tree (Gen_bib.document ~books:50 ()));
  check_bool "seeds differ" false (Tree.equal tree (Gen_bib.document ~seed:7 ~books:50 ()));
  (* every book has a title, >=1 author, a price and a year attribute *)
  List.iter
    (fun book ->
      check_bool "title" true (Tree.children book <> []);
      check_bool "year" true (Tree.attr book "year" <> None);
      let has name =
        List.exists (fun c -> String.equal (Tree.name c) name) (Tree.children book)
      in
      check_bool "has title" true (has "title");
      check_bool "has author" true (has "author");
      check_bool "has price" true (has "price"))
    (Tree.children tree)

let test_auction_shape_and_scale () =
  List.iter
    (fun scale ->
      let doc = Gen_auction.packed ~scale () in
      let n = Document.node_count doc in
      (* within 35% of the requested budget *)
      let ratio = float_of_int n /. float_of_int scale in
      if ratio < 0.65 || ratio > 1.35 then
        Alcotest.failf "scale %d produced %d nodes (ratio %.2f)" scale n ratio)
    [ 1_000; 5_000; 20_000 ];
  let doc = Gen_auction.packed ~scale:5_000 () in
  let exec = Xqp_physical.Executor.create doc in
  let count q = List.length (Xqp_physical.Executor.query exec q) in
  check_bool "has items" true (count "//item" > 0);
  check_bool "has people" true (count "//person" > 0);
  check_bool "has bidders" true (count "//open_auction/bidder" > 0);
  check_bool "people have profiles" true (count "//person/profile/@income" > 0);
  check_bool "recursive parlists exist" true (count "//parlist//parlist" > 0)

let test_dblp_shape () =
  let tree = Gen_dblp.document ~publications:100 () in
  check_string "root" "dblp" (Tree.name tree);
  check_int "publications" 100 (List.length (Tree.children tree));
  check_int "shallow" 4 (Tree.depth tree);
  check_bool "deterministic" true (Tree.equal tree (Gen_dblp.document ~publications:100 ()));
  let doc = Document.of_tree tree in
  let exec = Xqp_physical.Executor.create doc in
  let count q = List.length (Xqp_physical.Executor.query exec q) in
  check_bool "has authors" true (count "//author" >= 100);
  check_int "titles" 100 (count "//title");
  check_bool "both kinds" true (count "//article" > 0 && count "//inproceedings" > 0);
  check_int "keys" 100 (count "//@key")

let test_synthetic_shapes () =
  let chain = Gen_synthetic.deep_chain ~depth:100 "a" in
  check_int "chain depth" 101 (Tree.depth chain);
  (* 100 elements + 1 text leaf *)
  check_int "chain nodes" 101 (Tree.node_count chain);
  let wide = Gen_synthetic.wide ~fanout:500 "x" in
  check_int "wide kids" 500 (List.length (Tree.children wide));
  let uni = Gen_synthetic.uniform ~depth:4 ~fanout:3 ~tags:[| "p"; "q" |] () in
  check_bool "uniform node count" true (Tree.node_count uni > 3 * 3 * 3);
  let doc = Document.of_tree uni in
  check_bool "only known tags" true
    (List.for_all
       (fun name -> List.mem name [ "root"; "p"; "q"; "#text" ])
       (let acc = ref [] in
        for id = 0 to Document.node_count doc - 1 do
          acc := Document.name doc id :: !acc
        done;
        !acc))

let test_skewed_frequency () =
  let nodes = 20_000 in
  List.iter
    (fun freq ->
      let tree = Gen_synthetic.skewed ~nodes ~target:"t" ~target_frequency:freq () in
      let doc = Document.of_tree tree in
      let count =
        match Symtab.find_opt (Document.symtab doc) "t" with
        | Some sym -> List.length (Document.nodes_by_name doc sym)
        | None -> 0
      in
      let actual = float_of_int count /. float_of_int (Document.node_count doc) in
      (* text leaves dilute the per-node rate; allow a wide band *)
      if actual < freq *. 0.3 || actual > freq *. 1.7 +. 0.01 then
        Alcotest.failf "freq %.3f produced %.3f" freq actual)
    [ 0.05; 0.2; 0.5 ]

let test_queries_wellformed () =
  (* every workload query parses, and optimizes to at most one tau *)
  List.iter
    (fun q ->
      let plan = Xqp_xpath.Parser.parse q.Queries.xpath in
      ignore (Xqp_algebra.Rewrite.optimize plan))
    (Queries.auction_paths @ Queries.auction_complexity_sweep);
  (* nok_heavy queries are fully local patterns *)
  List.iter
    (fun q ->
      if q.Queries.nok_heavy then begin
        let pattern = Xqp_xpath.Parser.parse_pattern q.Queries.xpath in
        let parts = Xqp_physical.Nok_partition.partition pattern in
        check_bool (q.Queries.id ^ " mostly local") true
          (List.length parts.Xqp_physical.Nok_partition.links <= 1)
      end)
    Queries.auction_paths;
  (* FLWOR workloads parse and evaluate on a bib document *)
  let exec = Xqp_physical.Executor.create (Gen_bib.packed ~books:10 ()) in
  List.iter
    (fun (id, q) ->
      match Xqp_xquery.Eval.eval_query exec q with
      | _ -> ()
      | exception e -> Alcotest.failf "%s failed: %s" id (Printexc.to_string e))
    Queries.bib_flwor;
  check_bool "by_id" true (String.equal (Queries.by_id "Q1").Queries.id "Q1");
  check_bool "by_id missing" true
    (match Queries.by_id "ZZ" with exception Not_found -> true | _ -> false)

let test_queries_nonempty_results () =
  (* at a reasonable scale every benchmark query returns something *)
  let doc = Gen_auction.packed ~scale:8_000 () in
  let exec = Xqp_physical.Executor.create doc in
  List.iter
    (fun q ->
      let n = List.length (Xqp_physical.Executor.query exec q.Queries.xpath) in
      if n = 0 then Alcotest.failf "%s returns nothing" q.Queries.id)
    (Queries.auction_paths @ Queries.auction_complexity_sweep)

(* Every engine over a store reopened from disk answers, byte for byte,
   what the same XML answers when parsed: the one-pass open (document
   straight from the packed sections, statistics from the packed summary,
   NoK on the loaded store) changes nothing an engine can see. *)
let test_reopened_store_differential () =
  let module Session = Xqp.Session in
  let module Executor = Xqp_physical.Executor in
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (Xqp.Error.message e)
  in
  let texts =
    List.map (fun q -> q.Queries.xpath) (Queries.auction_paths @ Queries.auction_complexity_sweep)
  in
  let engines = Executor.Auto :: Executor.Reference :: Executor.all_strategies in
  let answer session engine q =
    let r = ok q (Session.run ~engine ~use_cache:false session q) in
    List.map (Session.node_string session) r.Session.nodes
  in
  List.iter
    (fun (label, tree) ->
      let parsed = ok label (Session.of_string (Serializer.to_string tree)) in
      let path = Filename.temp_file "xqp_reopen" ".xqdb" in
      Xqp_storage.Store_io.save
        (Xqp_storage.Succinct_store.of_document (Session.document parsed))
        path;
      let reopened = ok path (Session.open_db path) in
      List.iter
        (fun q ->
          let expected = answer parsed Executor.Reference q in
          List.iter
            (fun engine ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s %s" label q (Executor.strategy_name engine))
                expected (answer reopened engine q))
            engines)
        texts;
      (* NoK reads the store the open loaded, not a re-linearized copy *)
      let pager = Xqp_storage.Pager.create () in
      let exec = Executor.of_file ~pager path in
      check_bool "loaded store reused" true
        (match Xqp_storage.Succinct_store.pager (Executor.store exec) with
        | Some p -> p == pager
        | None -> false);
      Sys.remove path)
    [
      ("auction:3000", Gen_auction.document ~scale:3000 ());
      ("bib", Gen_bib.document ~books:40 ());
    ]

let suite =
  [
    ( "workload.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "ranges" `Quick test_prng_ranges;
        qcheck prop_prng_uniformish;
      ] );
    ( "workload.generators",
      [
        Alcotest.test_case "bib shape" `Quick test_bib_shape;
        Alcotest.test_case "auction shape and scale" `Quick test_auction_shape_and_scale;
        Alcotest.test_case "dblp shape" `Quick test_dblp_shape;
        Alcotest.test_case "synthetic shapes" `Quick test_synthetic_shapes;
        Alcotest.test_case "skewed frequency" `Quick test_skewed_frequency;
      ] );
    ( "workload.queries",
      [
        Alcotest.test_case "wellformed" `Quick test_queries_wellformed;
        Alcotest.test_case "nonempty results" `Quick test_queries_nonempty_results;
        Alcotest.test_case "reopened store = parsed XML, every engine" `Quick
          test_reopened_store_differential;
      ] );
  ]
