let magic = "XQPSTORE"
let version = 4

(* Format v4 — fixed-size header, then sections at computable offsets so a
   paged reader can address them without scanning:

     magic (8 bytes)          "XQPSTORE"
     version                  i64
     node_count n             i64
     tag_width w              i64 (1 or 2)
     structure_bit_len        i64 (= 2n)
     structure_byte_len       i64
     flags_bit_len            i64 (= n)
     flags_byte_len           i64
     symbol_count             i64
     symbol_blob_len          i64
     content_count            i64
     content_blob_len         i64
     dir_block_count          i64 (= ceil(structure_bit_len / 256))
     flag_sample_count        i64 (= ceil(flags_bit_len / 256) + 1)
     psum_count               i64 (path-summary nodes)
   sections, in order:
     structure bytes          structure_byte_len
     tag bytes                n * w
     has-content bytes        flags_byte_len
     symbol offsets           (symbol_count + 1) × i64 (into the blob)
     symbol blob              symbol_blob_len
     content offsets          (content_count + 1) × i64
     content blob             content_blob_len
     structure excess dir     dir_block_count × 5 × i16 (delta, fmin,
                              fmax, bmin, bmax per 256-bit block)
     flag rank samples        flag_sample_count × i64 (rank1 of the flag
                              bits at each 256-bit boundary, then total)
     path summary             psum_count × 4 × i64 (parent + 1, label
                              symbol id, exact count, flags; canonical
                              pre-order, siblings label-sorted)

   All integers little-endian; the i16 directory entries are signed
   (values lie in [-256, 256]). Serializing the navigation directories
   (v3) lets {!Paged_store} open a file without streaming the structure
   section; {!load} cross-checks them against recomputed ones, so
   corruption is detected. The path summary (v4) is the planner's
   cardinality synopsis, likewise recomputed and cross-checked at load.
   Word-level rank directories remain derived data and are rebuilt by the
   reader. *)

let header_bytes = 8 + (8 * 14)

type layout = {
  node_count : int;
  tag_width : int;
  structure_bit_len : int;
  structure_off : int;
  structure_byte_len : int;
  tags_off : int;
  flags_bit_len : int;
  flags_off : int;
  flags_byte_len : int;
  symbol_count : int;
  symbol_offsets_off : int;
  symbol_blob_off : int;
  content_count : int;
  content_offsets_off : int;
  content_blob_off : int;
  dir_block_count : int;
  dir_off : int;
  flag_sample_count : int;
  flag_samples_off : int;
  psum_count : int;
  psum_off : int;
}

let dir_blocks_for bit_len = (bit_len + Excess_dir.block_bits - 1) / Excess_dir.block_bits
let flag_samples_for bit_len = dir_blocks_for bit_len + 1
let psum_row_bytes = 32

let layout_of_fields ~node_count ~tag_width ~structure_bit_len ~structure_byte_len ~flags_bit_len
    ~flags_byte_len ~symbol_count ~symbol_blob_len ~content_count ~content_blob_len
    ~dir_block_count ~flag_sample_count ~psum_count =
  let structure_off = header_bytes in
  let tags_off = structure_off + structure_byte_len in
  let flags_off = tags_off + (node_count * tag_width) in
  let symbol_offsets_off = flags_off + flags_byte_len in
  let symbol_blob_off = symbol_offsets_off + (8 * (symbol_count + 1)) in
  let content_offsets_off = symbol_blob_off + symbol_blob_len in
  let content_blob_off = content_offsets_off + (8 * (content_count + 1)) in
  let dir_off = content_blob_off + content_blob_len in
  let flag_samples_off = dir_off + (dir_block_count * 10) in
  let psum_off = flag_samples_off + (8 * flag_sample_count) in
  {
    node_count;
    tag_width;
    structure_bit_len;
    structure_off;
    structure_byte_len;
    tags_off;
    flags_bit_len;
    flags_off;
    flags_byte_len;
    symbol_count;
    symbol_offsets_off;
    symbol_blob_off;
    content_count;
    content_offsets_off;
    content_blob_off;
    dir_block_count;
    dir_off;
    flag_sample_count;
    flag_samples_off;
    psum_count;
    psum_off;
  }

(* Rebuild the path summary from the raw sections — a single pass over the
   balanced-parentheses bits driving the builder with the store labels. Used
   by [save] (to serialize it) and by [load] (to cross-check the serialized
   copy, like the excess directory). *)
let summary_of_raw (raw : Succinct_store.raw) =
  let b = Path_summary.Builder.create () in
  let bits = Bitvector.length raw.Succinct_store.structure in
  let rank = ref 0 in
  for i = 0 to bits - 1 do
    if Bitvector.get raw.Succinct_store.structure i then begin
      Path_summary.Builder.open_node b
        raw.Succinct_store.symbols.(raw.Succinct_store.tag_ids.(!rank));
      incr rank
    end
    else Path_summary.Builder.close_node b
  done;
  Path_summary.Builder.finish b

let summary_of_store store = summary_of_raw (Succinct_store.to_raw store)

(* --- writing ----------------------------------------------------------- *)

let buf_i64 buf v =
  for shift = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let buf_i16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let blob_of arr =
  let buffer = Buffer.create 256 in
  let offsets = Array.make (Array.length arr + 1) 0 in
  Array.iteri
    (fun i s ->
      offsets.(i) <- Buffer.length buffer;
      Buffer.add_string buffer s)
    arr;
  offsets.(Array.length arr) <- Buffer.length buffer;
  (offsets, Buffer.contents buffer)

let to_bytes store =
  let raw = Succinct_store.to_raw store in
  let n = Array.length raw.Succinct_store.tag_ids in
  let symbol_count = Array.length raw.Succinct_store.symbols in
  let tag_width = if symbol_count <= 256 then 1 else 2 in
  let structure_bytes, structure_bit_len =
    Bitvector.to_packed_bytes raw.Succinct_store.structure
  in
  let flags_bytes, flags_bit_len = Bitvector.to_packed_bytes raw.Succinct_store.content_flags in
  let symbol_offsets, symbol_blob = blob_of raw.Succinct_store.symbols in
  let content_offsets, content_blob = blob_of raw.Succinct_store.contents in
  let dir =
    Excess_dir.create ~len:structure_bit_len ~byte:(fun i ->
        Char.code (Bytes.get structure_bytes i))
  in
  let blk = Excess_dir.blocks dir in
  let dir_block_count = dir_blocks_for structure_bit_len in
  let flag_sample_count = flag_samples_for flags_bit_len in
  let summary = summary_of_raw raw in
  let label_ids = Hashtbl.create (max 16 symbol_count) in
  Array.iteri (fun i s -> Hashtbl.replace label_ids s i) raw.Succinct_store.symbols;
  let psum_rows = Path_summary.to_rows summary ~label_id:(Hashtbl.find label_ids) in
  let buf = Buffer.create (4096 + (Bytes.length structure_bytes * 4)) in
  Buffer.add_string buf magic;
  buf_i64 buf version;
  buf_i64 buf n;
  buf_i64 buf tag_width;
  buf_i64 buf structure_bit_len;
  buf_i64 buf (Bytes.length structure_bytes);
  buf_i64 buf flags_bit_len;
  buf_i64 buf (Bytes.length flags_bytes);
  buf_i64 buf symbol_count;
  buf_i64 buf (String.length symbol_blob);
  buf_i64 buf (Array.length raw.Succinct_store.contents);
  buf_i64 buf (String.length content_blob);
  buf_i64 buf dir_block_count;
  buf_i64 buf flag_sample_count;
  buf_i64 buf (Array.length psum_rows);
  Buffer.add_bytes buf structure_bytes;
  (* tag section *)
  Array.iter
    (fun tag ->
      Buffer.add_char buf (Char.chr (tag land 0xFF));
      if tag_width = 2 then Buffer.add_char buf (Char.chr ((tag lsr 8) land 0xFF)))
    raw.Succinct_store.tag_ids;
  Buffer.add_bytes buf flags_bytes;
  Array.iter (buf_i64 buf) symbol_offsets;
  Buffer.add_string buf symbol_blob;
  Array.iter (buf_i64 buf) content_offsets;
  Buffer.add_string buf content_blob;
  for b = 0 to dir_block_count - 1 do
    buf_i16 buf blk.Excess_dir.delta.(b);
    buf_i16 buf blk.Excess_dir.fmin.(b);
    buf_i16 buf blk.Excess_dir.fmax.(b);
    buf_i16 buf blk.Excess_dir.bmin.(b);
    buf_i16 buf blk.Excess_dir.bmax.(b)
  done;
  for s = 0 to flag_sample_count - 1 do
    let boundary = min flags_bit_len (s * Excess_dir.block_bits) in
    buf_i64 buf (Bitvector.rank1 raw.Succinct_store.content_flags boundary)
  done;
  Array.iter
    (fun r ->
      buf_i64 buf r.Path_summary.r_parent;
      buf_i64 buf r.Path_summary.r_label;
      buf_i64 buf r.Path_summary.r_count;
      buf_i64 buf r.Path_summary.r_flags)
    psum_rows;
  Buffer.contents buf

let save store path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_bytes store))

(* --- reading the header ------------------------------------------------ *)

let corrupt path what = failwith (Printf.sprintf "%s: corrupt store file (%s)" path what)

(* Layout straight from the header fields, with no consistency checks:
   the fsck pass wants to address sections of a possibly-corrupt file and
   report every inconsistency itself rather than fail on the first. *)
let layout_of_header ~read_i64 =
  layout_of_fields ~node_count:(read_i64 16) ~tag_width:(read_i64 24)
    ~structure_bit_len:(read_i64 32) ~structure_byte_len:(read_i64 40)
    ~flags_bit_len:(read_i64 48) ~flags_byte_len:(read_i64 56) ~symbol_count:(read_i64 64)
    ~symbol_blob_len:(read_i64 72) ~content_count:(read_i64 80) ~content_blob_len:(read_i64 88)
    ~dir_block_count:(read_i64 96) ~flag_sample_count:(read_i64 104) ~psum_count:(read_i64 112)

(* The same layout for a reader: fail on the first inconsistency. *)
let read_layout_from ~read_i64 ~path ~total_size =
  let l = layout_of_header ~read_i64 in
  if l.node_count < 0 || l.symbol_count < 0 || l.content_count < 0 then
    corrupt path "negative count";
  if l.tag_width <> 1 && l.tag_width <> 2 then corrupt path "bad tag width";
  if l.structure_bit_len <> 2 * l.node_count then corrupt path "structure length";
  if l.flags_bit_len <> l.node_count then corrupt path "flag length";
  if l.dir_block_count <> dir_blocks_for l.structure_bit_len then corrupt path "directory size";
  if l.flag_sample_count <> flag_samples_for l.flags_bit_len then corrupt path "flag sample count";
  if l.psum_count < 0 || l.psum_count > l.node_count then corrupt path "summary count";
  if l.psum_off + (psum_row_bytes * l.psum_count) <> total_size then corrupt path "size mismatch";
  l

let sign16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

(* Decode the serialized per-block excess directory through an arbitrary
   byte reader (string for [load], buffer pool for [Paged_store]). *)
let read_dir_blocks ~get_byte ~dir_off ~dir_block_count =
  let u16 off = get_byte off lor (get_byte (off + 1) lsl 8) in
  let field k = Array.init (max 1 dir_block_count) (fun b ->
      if b < dir_block_count then sign16 (u16 (dir_off + (b * 10) + (2 * k))) else 0)
  in
  {
    Excess_dir.delta = field 0;
    fmin = field 1;
    fmax = field 2;
    bmin = field 3;
    bmax = field 4;
  }

(* --- whole-file load (in-memory store) --------------------------------- *)

(* The O(doc) recompute-and-compare cross-checks (excess directory, path
   summary) used to run on every open, which multiplies painfully across a
   corpus of shards. Opens now trust the packed sections by default; the
   full cross-check lives in fsck and can be forced per-process with
   XQP_VERIFY_PLANS=1 or per-call with [~verify:true]. *)
let verify_default () =
  match Sys.getenv_opt "XQP_VERIFY_PLANS" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* Little-endian i64 field of an image. OCaml ints have 63 bits, so a field
   whose two top bits differ has no representation: decoding it anyway
   would drop a flipped sign bit and read the original value back. *)
let image_i64 ~path image off =
  let top = Char.code image.[off + 7] lsr 6 in
  if top = 1 || top = 2 then corrupt path "integer out of range";
  let v = ref 0 in
  for shift = 0 to 7 do
    v := !v lor (Char.code image.[off + shift] lsl (8 * shift))
  done;
  !v

(* Magic, version and section directory of an image. *)
let image_layout ~path image =
  let total_size = String.length image in
  if total_size < header_bytes then corrupt path "too small";
  if not (String.equal (String.sub image 0 8) magic) then corrupt path "bad magic";
  let file_version = image_i64 ~path image 8 in
  if file_version <> version then
    failwith
      (Printf.sprintf "%s: unsupported store version %d (expected %d)" path file_version version);
  read_layout_from ~read_i64:(image_i64 ~path image) ~path ~total_size

let summary_rows read_i64 layout =
  Array.init layout.psum_count (fun i ->
      let base = layout.psum_off + (psum_row_bytes * i) in
      {
        Path_summary.r_parent = read_i64 base;
        r_label = read_i64 (base + 8);
        r_count = read_i64 (base + 16);
        r_flags = read_i64 (base + 24);
      })

(* An offset table of [count + 1] i64s and the blob it slices. *)
let image_strings ~path image ~offsets_off ~blob_off ~count =
  Array.init count (fun i ->
      let start = image_i64 ~path image (offsets_off + (8 * i)) in
      let stop = image_i64 ~path image (offsets_off + (8 * (i + 1))) in
      if start < 0 || stop < start || blob_off + stop > String.length image then
        corrupt path "offset order";
      String.sub image (blob_off + start) (stop - start))

let image_symbols ~path image layout =
  image_strings ~path image ~offsets_off:layout.symbol_offsets_off
    ~blob_off:layout.symbol_blob_off ~count:layout.symbol_count

let load_bytes ?pager ?verify ~path contents_of_file =
  let verify = match verify with Some v -> v | None -> verify_default () in
  let total_size = String.length contents_of_file in
  let read_i64 = image_i64 ~path contents_of_file in
  let layout = image_layout ~path contents_of_file in
  let section off len =
    if off < 0 || len < 0 || off + len > total_size then corrupt path "section bounds";
    String.sub contents_of_file off len
  in
  let structure =
    Bitvector.of_packed_bytes
      (Bytes.of_string (section layout.structure_off layout.structure_byte_len))
      layout.structure_bit_len
  in
  (* Cross-check the serialized directories against freshly computed
     ones when verifying: a corrupted directory would misnavigate a
     paged reader. fsck always runs this check. *)
  if verify then begin
    let stored =
      read_dir_blocks
        ~get_byte:(fun off -> Char.code contents_of_file.[off])
        ~dir_off:layout.dir_off ~dir_block_count:layout.dir_block_count
    in
    let fresh =
      Excess_dir.blocks
        (Excess_dir.create ~len:layout.structure_bit_len ~byte:(Bitvector.byte structure))
    in
    if
      not
        (stored.Excess_dir.delta = fresh.Excess_dir.delta
        && stored.Excess_dir.fmin = fresh.Excess_dir.fmin
        && stored.Excess_dir.fmax = fresh.Excess_dir.fmax
        && stored.Excess_dir.bmin = fresh.Excess_dir.bmin
        && stored.Excess_dir.bmax = fresh.Excess_dir.bmax)
    then corrupt path "excess directory mismatch"
  end;
  let tag_ids =
    Array.init layout.node_count (fun rank ->
        let off = layout.tags_off + (rank * layout.tag_width) in
        let lo = Char.code contents_of_file.[off] in
        if layout.tag_width = 1 then lo
        else lo lor (Char.code contents_of_file.[off + 1] lsl 8))
  in
  let content_flags =
    Bitvector.of_packed_bytes
      (Bytes.of_string (section layout.flags_off layout.flags_byte_len))
      layout.flags_bit_len
  in
  for s = 0 to layout.flag_sample_count - 1 do
    let boundary = min layout.flags_bit_len (s * Excess_dir.block_bits) in
    if read_i64 (layout.flag_samples_off + (8 * s)) <> Bitvector.rank1 content_flags boundary
    then corrupt path "flag rank sample mismatch"
  done;
  let symbols = image_symbols ~path contents_of_file layout in
  let contents =
    image_strings ~path contents_of_file ~offsets_off:layout.content_offsets_off
      ~blob_off:layout.content_blob_off ~count:layout.content_count
  in
  let raw = { Succinct_store.structure; tag_ids; symbols; content_flags; contents } in
  (* When verifying, cross-check the serialized path summary against a
     recomputed one, like the excess directory: a stale or corrupted
     synopsis must not silently feed the planner wrong cardinalities. *)
  if verify then begin
    let stored_rows = summary_rows read_i64 layout in
    let label_ids = Hashtbl.create (max 16 layout.symbol_count) in
    Array.iteri (fun i s -> Hashtbl.replace label_ids s i) symbols;
    let fresh_rows =
      match Path_summary.to_rows (summary_of_raw raw) ~label_id:(Hashtbl.find label_ids) with
      | rows -> rows
      | exception Failure _ | exception Not_found -> corrupt path "path summary rebuild"
    in
    if stored_rows <> fresh_rows then corrupt path "path summary mismatch"
  end;
  match Succinct_store.of_raw ?pager raw with
  | store -> store
  | exception Invalid_argument reason -> corrupt path reason

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let total_size = in_channel_length ic in
      try really_input_string ic total_size with End_of_file -> corrupt path "truncated")

let load ?pager ?verify path = load_bytes ?pager ?verify ~path (read_file path)

(* Parse just the header, symbol table and path-summary rows of a store
   image — the per-shard synopsis a catalog needs, without materializing
   (or even fully validating) the store. O(symbols + summary). *)
let packed_summary ~path contents_of_file =
  let layout = image_layout ~path contents_of_file in
  let symbols = image_symbols ~path contents_of_file layout in
  let rows = summary_rows (image_i64 ~path contents_of_file) layout in
  let label_of id =
    if id < 0 || id >= Array.length symbols then corrupt path "summary label id"
    else symbols.(id)
  in
  match Path_summary.of_rows rows ~label_of with
  | summary -> summary
  | exception Failure _ -> corrupt path "path summary table"

(* --- header access for the paged reader -------------------------------- *)

let read_layout pool path =
  if Buffer_pool.file_size pool < header_bytes then corrupt path "too small";
  if not (String.equal (Buffer_pool.read_string pool ~off:0 ~len:8) magic) then
    corrupt path "bad magic";
  let file_version = Buffer_pool.read_i64 pool 8 in
  if file_version <> version then
    failwith
      (Printf.sprintf "%s: unsupported store version %d (expected %d)" path file_version version);
  read_layout_from ~read_i64:(Buffer_pool.read_i64 pool) ~path
    ~total_size:(Buffer_pool.file_size pool)
