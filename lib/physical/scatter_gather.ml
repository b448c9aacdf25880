(* Scatter-gather corpus execution: one plan compiled against the catalog's
   merged summary fans out across shards on a persistent pool of worker
   domains; per-shard results merge back in global document order. See the
   .mli and DESIGN.md §14 for the ownership model. *)

module Doc = Xqp_xml.Document
module Catalog = Xqp_storage.Catalog
module Ops = Xqp_algebra.Operators
module Pp = Physical_plan
module M = Xqp_obs.Metrics
module Tr = Xqp_obs.Trace

(* --- global-ordinal node tagging ---------------------------------------- *)

(* Corpus result node ids carry their owning document's global ordinal in
   the high bits (ordinal + 1, so plain single-document ids — and the -1
   document context — decode to ordinal -1). Within-document ids stay
   below 2^40 by a huge margin; ordinals fit the remaining 22 bits of a
   63-bit int. Tagged ids are strictly increasing across (ordinal, node),
   so a merged corpus stream is still sorted and duplicate-free. *)
let ordinal_shift = 40
let node_mask = (1 lsl ordinal_shift) - 1
let encode ~ordinal node = ((ordinal + 1) lsl ordinal_shift) lor node
let decode id = ((id lsr ordinal_shift) - 1, id land node_mask)

(* --- worker pool --------------------------------------------------------- *)

type pool = {
  p_lock : Mutex.t;
  p_work : Condition.t;
  p_done : Condition.t;
  mutable p_queue : (unit -> unit) list;
  mutable p_stop : bool;
  mutable p_workers : unit Domain.t array;
}

let make_pool n =
  let pool =
    {
      p_lock = Mutex.create ();
      p_work = Condition.create ();
      p_done = Condition.create ();
      p_queue = [];
      p_stop = false;
      p_workers = [||];
    }
  in
  let rec worker () =
    Mutex.lock pool.p_lock;
    while pool.p_queue = [] && not pool.p_stop do
      Condition.wait pool.p_work pool.p_lock
    done;
    match pool.p_queue with
    | [] -> Mutex.unlock pool.p_lock (* stopping *)
    | task :: rest ->
        pool.p_queue <- rest;
        Mutex.unlock pool.p_lock;
        task ();
        worker ()
  in
  pool.p_workers <- Array.init n (fun _ -> Domain.spawn worker);
  pool

let stop_pool pool =
  Mutex.lock pool.p_lock;
  pool.p_stop <- true;
  Condition.broadcast pool.p_work;
  Mutex.unlock pool.p_lock;
  Array.iter Domain.join pool.p_workers;
  pool.p_workers <- [||]

(* Run every task and wait. Tasks must not raise (shard tasks trap their
   own exceptions into result slots). Concurrent batches from different
   coordinator domains interleave freely in the shared queue; each waits
   on its own remaining-count. *)
let run_batch pool tasks =
  match pool with
  | None -> Array.iter (fun task -> task ()) tasks
  | Some pool ->
      let remaining = ref (Array.length tasks) in
      let wrapped task () =
        Fun.protect task ~finally:(fun () ->
            Mutex.lock pool.p_lock;
            decr remaining;
            if !remaining = 0 then Condition.broadcast pool.p_done;
            Mutex.unlock pool.p_lock)
      in
      Mutex.lock pool.p_lock;
      pool.p_queue <- pool.p_queue @ Array.to_list (Array.map wrapped tasks);
      Condition.broadcast pool.p_work;
      (* The coordinator helps drain the queue instead of blocking: with
         fewer cores than domains this collapses the oversubscription
         overhead (most tasks run inline on the coordinator), and with
         enough cores it adds one more worker to the batch. It may pick
         up another coordinator's tasks — that only speeds them up. *)
      let rec drain () =
        match pool.p_queue with
        | task :: rest ->
            pool.p_queue <- rest;
            Mutex.unlock pool.p_lock;
            task ();
            Mutex.lock pool.p_lock;
            drain ()
        | [] ->
            if !remaining > 0 then begin
              Condition.wait pool.p_done pool.p_lock;
              drain ()
            end
      in
      drain ();
      Mutex.unlock pool.p_lock

(* --- corpus state -------------------------------------------------------- *)

type doc_slot = {
  ordinal : int;
  slot_lock : Mutex.t;
      (* owns the executor: materialization and every query on it run
         under this lock, so lazy artifacts are forced by exactly one
         domain at a time *)
  mutable exec : Executor.t option;
}

type shard_state = {
  shard_index : int;
  shard_stats : Statistics.t; (* from the catalog's per-shard summary; pruning input *)
  slots : doc_slot array;
  load_lock : Mutex.t;
  mutable images : string array option; (* raw store images, freed once all docs built *)
  mutable built : int;
}

type t = {
  catalog : Catalog.t;
  planner : Executor.t;
  domains : int;
  pool : pool option;
  shard_states : shard_state array;
  m_dispatched : M.counter;
  m_pruned : M.counter;
  m_materialized : M.counter;
  m_shard_ms : M.histogram;
  m_shard_rows : M.histogram;
}

let open_catalog ?(domains = 1) catalog =
  let domains = max 1 domains in
  (* Cap the pool at the hardware: extra worker domains on a CPU-bound
     batch only add context-switch thrash. The coordinator drains the
     queue too, so [workers = 1] (or a 1-core box) degrades to inline
     serial execution rather than a one-worker pool. The requested
     degree is still what [domains t] reports. *)
  let workers = min domains (Domain.recommended_domain_count ()) in
  let shard_states =
    Array.mapi
      (fun i (s : Catalog.shard) ->
        let base = Catalog.doc_base catalog i in
        {
          shard_index = i;
          shard_stats = Statistics.of_summary s.Catalog.summary;
          slots =
            Array.init (Array.length s.Catalog.doc_names) (fun d ->
                { ordinal = base + d; slot_lock = Mutex.create (); exec = None });
          load_lock = Mutex.create ();
          images = None;
          built = 0;
        })
      catalog.Catalog.shards
  in
  {
    catalog;
    planner =
      Executor.create_planner
        ~stats_version:catalog.Catalog.merged_stats_version
        (Statistics.of_summary catalog.Catalog.merged);
    domains;
    pool = (if workers > 1 then Some (make_pool workers) else None);
    shard_states;
    m_dispatched = M.counter M.default "corpus.shards_dispatched";
    m_pruned = M.counter M.default "corpus.shards_pruned";
    m_materialized = M.counter M.default "corpus.docs_materialized";
    m_shard_ms = M.histogram M.default "corpus.shard_ms";
    m_shard_rows = M.histogram M.default "corpus.shard_rows";
  }

let catalog t = t.catalog
let planner t = t.planner
let domains t = t.domains
let doc_count t = Catalog.doc_count t.catalog
let shard_count t = Array.length t.shard_states
let close t = Option.iter stop_pool t.pool

let shard_images t ss =
  Mutex.lock ss.load_lock;
  let images =
    match ss.images with
    | Some imgs -> imgs
    | None ->
        let imgs = Catalog.read_shard_images t.catalog ss.shard_index in
        ss.images <- Some imgs;
        imgs
  in
  Mutex.unlock ss.load_lock;
  images

(* Build a document executor from its packed image. Called with the slot
   lock held; the open checks balance and the packed summary in O(doc),
   the other cross-checks stay in fsck and XQP_VERIFY_PLANS. *)
let slot_executor t ss slot doc_in_shard =
  match slot.exec with
  | Some exec -> exec
  | None ->
      let image = (shard_images t ss).(doc_in_shard) in
      let path =
        Printf.sprintf "%s[%d]" (Catalog.shard_file t.catalog ss.shard_index) doc_in_shard
      in
      let exec = Executor.of_image ~path image in
      slot.exec <- Some exec;
      M.incr t.m_materialized;
      Mutex.lock ss.load_lock;
      ss.built <- ss.built + 1;
      if ss.built = Array.length ss.slots then ss.images <- None;
      Mutex.unlock ss.load_lock;
      exec

let with_doc_executor t ~ordinal f =
  let rec find i =
    if i + 1 < Array.length t.shard_states
       && Catalog.doc_base t.catalog (i + 1) <= ordinal
    then find (i + 1)
    else i
  in
  if ordinal < 0 || ordinal >= doc_count t then invalid_arg "Scatter_gather.with_doc_executor";
  let ss = t.shard_states.(find 0) in
  let doc_in_shard = ordinal - Catalog.doc_base t.catalog ss.shard_index in
  let slot = ss.slots.(doc_in_shard) in
  Mutex.lock slot.slot_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slot.slot_lock)
    (fun () -> f (slot_executor t ss slot doc_in_shard))

let document t ~ordinal = with_doc_executor t ~ordinal Executor.doc

(* --- execution ----------------------------------------------------------- *)

type shard_report = {
  shard : int;
  pruned : bool;
  docs : int;
  rows : int;
  ms : float;
}

type run_result = {
  nodes : Doc.node list; (* ordinal-tagged, global document order *)
  ops : Executor.op_stat list;
  reports : shard_report list;
}

let run t ?deadline ?trace ?(collect_ops = false) physical =
  let logical = Pp.to_logical physical in
  let n = Array.length t.shard_states in
  (* Per-shard emptiness proof off the catalog summaries: a pruned shard is
     never dispatched — its documents are never even opened. *)
  let pruned =
    Array.map (fun ss -> Cost_model.plan_certainly_empty ss.shard_stats logical) t.shard_states
  in
  let shard_nodes = Array.make n [||] in
  let shard_ops = Array.make n [] in
  let shard_ms = Array.make n 0.0 in
  let errors = Array.make n None in
  let task ss () =
    let t0 = Unix.gettimeofday () in
    (try
       shard_nodes.(ss.shard_index) <-
         Array.mapi
           (fun doc_in_shard slot ->
             Mutex.lock slot.slot_lock;
             Fun.protect
               ~finally:(fun () -> Mutex.unlock slot.slot_lock)
               (fun () ->
                 let exec = slot_executor t ss slot doc_in_shard in
                 let stats = if collect_ops then Some (ref []) else None in
                 let nodes =
                   Executor.run_physical exec ?deadline ?stats physical
                     ~context:[ Ops.document_context ]
                 in
                 (match stats with
                 | Some r ->
                     (* run_physical appends in reverse completion order *)
                     shard_ops.(ss.shard_index) <- shard_ops.(ss.shard_index) @ List.rev !r
                 | None -> ());
                 (slot.ordinal, nodes)))
           ss.slots
     with e -> errors.(ss.shard_index) <- Some e);
    shard_ms.(ss.shard_index) <- (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let tasks =
    Array.to_list t.shard_states
    |> List.filter (fun ss -> not pruned.(ss.shard_index))
    |> List.map (fun ss -> task ss)
    |> Array.of_list
  in
  M.add t.m_dispatched (Array.length tasks);
  M.add t.m_pruned (n - Array.length tasks);
  run_batch t.pool tasks;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  let reports = ref [] in
  let nodes = ref [] in
  for i = n - 1 downto 0 do
    let rows =
      Array.fold_left (fun acc (_, ns) -> acc + List.length ns) 0 shard_nodes.(i)
    in
    if not pruned.(i) then begin
      M.observe t.m_shard_ms shard_ms.(i);
      M.observe t.m_shard_rows (float_of_int rows)
    end;
    reports :=
      {
        shard = i;
        pruned = pruned.(i);
        docs = Array.length t.shard_states.(i).slots;
        rows;
        ms = shard_ms.(i);
      }
      :: !reports;
    (* slots are in ordinal order; walk docs backwards while prepending *)
    for d = Array.length shard_nodes.(i) - 1 downto 0 do
      let ordinal, ns = shard_nodes.(i).(d) in
      nodes := List.rev_append (List.rev_map (encode ~ordinal) ns) !nodes
    done
  done;
  (* Shard-tagged spans land in the request trace from the coordinating
     domain after the join — tracers are request-scoped and single-domain,
     so workers never touch them; the measured wall time rides in attrs. *)
  (match trace with
  | Some tr when Tr.enabled tr ->
      List.iter
        (fun r ->
          Tr.with_span tr "shard"
            ~attrs:
              [
                ("shard", Tr.Int r.shard);
                ("pruned", Tr.Bool r.pruned);
                ("docs", Tr.Int r.docs);
                ("rows", Tr.Int r.rows);
                ("ms", Tr.Float r.ms);
              ]
            (fun _ -> ()))
        !reports
  | _ -> ());
  { nodes = !nodes; ops = List.concat (Array.to_list shard_ops); reports = !reports }
