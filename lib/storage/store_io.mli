(** Binary persistence for the succinct store.

    The on-disk layout mirrors the in-memory separation (§4.2): one
    length-prefixed section per sequence — structure bits, tag sequence,
    symbol table, has-content bits, content blob — so a future mmap-style
    reader could fault in sections independently. Integers are 64-bit
    little-endian; the file starts with a magic string and a format
    version.

    Since v3 the per-block excess directory of the structure bits and
    rank1 samples of the has-content bits are serialized too (trailing
    sections), so {!Paged_store} can open a file without streaming the
    structure. {!load} cross-checks them against recomputed directories
    and fails on mismatch. Word-level rank directories remain derived
    data, rebuilt at load time.

    Since v4 the {!Path_summary} of the document — every distinct
    root-to-node label path with its exact count — is serialized as a
    trailing section (4 × i64 per summary node), so the planner's
    cardinality synopsis rides with the data.

    Opens trust the packed directory and summary sections by default:
    the recompute-and-compare cross-checks are O(doc) per open, which
    multiplies across a corpus of shards. They run in fsck, and {!load}
    re-enables them with [~verify:true] or [XQP_VERIFY_PLANS=1]. *)

val magic : string
val version : int

val save : Succinct_store.t -> string -> unit
(** [save store path] writes the store. @raise Sys_error on I/O failure. *)

val to_bytes : Succinct_store.t -> string
(** The exact byte image {!save} writes — what catalog shard containers
    embed. *)

val load : ?pager:Pager.t -> ?verify:bool -> string -> Succinct_store.t
(** [load path] reads a store written by {!save}. [verify] (default: set
    iff [XQP_VERIFY_PLANS] is a non-empty value other than ["0"]) turns
    the O(doc) excess-directory and path-summary recompute-and-compare
    cross-checks back on.
    @raise Sys_error on I/O failure.
    @raise Failure on a bad magic, version or truncated file. *)

val load_bytes :
  ?pager:Pager.t -> ?verify:bool -> path:string -> string -> Succinct_store.t
(** {!load} from an in-memory image ([path] labels error messages) — how
    catalog shards address embedded per-document store images. *)

val corrupt : string -> string -> 'a
(** [corrupt path what] fails with the one message format every open uses
    for a damaged store: ["PATH: corrupt store file (WHAT)"].
    @raise Failure always. *)

val read_file : string -> string
(** Whole-file read used by {!load} (and by catalog/fsck callers that
    slice the image themselves). @raise Sys_error / Failure. *)

val packed_summary : path:string -> string -> Path_summary.t
(** Decode just the path-summary section (plus the symbol table it
    references) of a store image, without materializing the store —
    O(symbols + summary), not O(doc). @raise Failure on malformed
    header/table. *)

(** {2 Section directory} — used by {!Paged_store} to address sections of
    the file without reading it wholesale. All offsets are absolute file
    positions. *)

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
  dir_block_count : int;   (** 256-bit structure blocks *)
  dir_off : int;           (** 5 × i16 per block: delta, fmin, fmax, bmin, bmax *)
  flag_sample_count : int;
  flag_samples_off : int;  (** i64 rank1 sample per 256-bit flag boundary *)
  psum_count : int;        (** path-summary nodes *)
  psum_off : int;          (** 4 × i64 per node: parent + 1, label sym, count, flags *)
}

val header_bytes : int
val psum_row_bytes : int

val summary_of_store : Succinct_store.t -> Path_summary.t
(** Recompute the path summary from the store's raw sections — one pass
    over the balanced-parentheses bits. This is what [save] serializes and
    what [load] checks the serialized section against. *)

val layout_of_header : read_i64:(int -> int) -> layout
(** Compute the section directory straight from the 13 header fields
    ([read_i64] takes an absolute file offset), with {e no} consistency
    checks — for readers like the fsck pass that report inconsistencies
    themselves instead of failing on the first. *)

val read_dir_blocks :
  get_byte:(int -> int) -> dir_off:int -> dir_block_count:int -> Excess_dir.blocks
(** Decode the serialized structure excess directory through an arbitrary
    byte reader (used with a {!Buffer_pool} by {!Paged_store}). *)

val read_layout : Buffer_pool.t -> string -> layout
(** Validate the header through the pool and return the directory.
    @raise Failure on a bad magic, version or inconsistent sizes. *)
