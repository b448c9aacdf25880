(** The paper's succinct physical storage scheme (§4.2, [6]).

    Structure and content are stored separately:

    - the tree shape is a balanced-parentheses bit string in pre-order
      ({!Balanced_parens});
    - node labels are a dense tag sequence aligned to pre-order ranks (1 or
      2 bytes per node, from a store-local symbol table);
    - node contents (text characters, attribute values, comment/PI bodies)
      live in a {!Content_store} addressed through a has-content bit vector.

    Pre-order linearization clusters each subtree into a contiguous
    substring of all three sequences, which is what makes navigation
    cache/page friendly, updates local ({!replace_subtree}), and lets the
    NoK matcher run in a single scan — including over streaming input,
    whose arrival order is exactly this pre-order.

    Naming conventions in the store symbol table: attribute nodes are
    labeled ["@name"], text nodes ["#text"], comments ["#comment"],
    processing instructions ["?target"]. Element names are stored
    verbatim. *)

type t

type node = int
(** A node is the position of its open parenthesis in the structure bits. *)

type kind = Element | Attribute | Text | Comment | Pi

type footprint = {
  structure_bytes : int;  (** parentheses bits + excess directory *)
  tag_bytes : int;        (** tag sequence *)
  content_bytes : int;    (** content blob + offsets *)
  index_bytes : int;      (** has-content bit vector + rank directory *)
}

val of_document : ?pager:Pager.t -> Xqp_xml.Document.t -> t
(** Linearize a packed document. When [pager] is given, every subsequent
    navigation and content access is run through it for I/O accounting. *)

val of_tree : ?pager:Pager.t -> Xqp_xml.Tree.t -> t

val to_tree : t -> Xqp_xml.Tree.t
(** Rebuild the algebraic document (inverse of {!of_tree} up to nothing —
    the encoding is lossless), by way of {!to_document}.
    @raise Failure as {!to_document}. *)

val to_document : t -> Xqp_xml.Document.t
(** The packed document, built in one left-to-right scan of the
    parenthesis bits, tag bytes and has-content bits with no intermediate
    tree. Equal, field for field and symbol id for symbol id, to
    [Document.of_tree (to_tree s)]. The scan validates the structure: the
    excess never goes negative and ends at zero, there is one root, the
    number of opens equals the number of tags, and only elements have
    children. @raise Failure naming the violation otherwise. *)

val node_count : t -> int
val symtab : t -> Xqp_xml.Symtab.t
(** Store-local symbol table (see naming conventions above). *)

val root : t -> node
val first_child : t -> node -> node option
(** First child, attributes included (they precede content children). *)

val next_sibling : t -> node -> node option
val parent : t -> node -> node option
val kind_of : t -> node -> kind
val tag_id : t -> node -> int
(** Symbol id of the node's label in {!symtab}. *)

val tag_name : t -> node -> string
val content : t -> node -> string
(** Own content ([""] for elements). *)

val text_content : t -> node -> string
(** Concatenated descendant-or-self text (attribute value for attributes). *)

val subtree_size : t -> node -> int
val preorder_rank : t -> node -> int
val node_of_rank : t -> int -> node
val depth : t -> node -> int

val iter_nodes : t -> (node -> unit) -> unit
(** Visit every node in pre-order (a single left-to-right scan). *)

(** {2 Rank-threaded navigation}

    Pre-order ranks follow navigation cheaply — [rank(first_child x) =
    rank(x) + 1] and [rank(next_sibling x) = rank(x) + subtree_size x] —
    so hot loops (the NoK matcher) carry [(position, rank)] pairs instead
    of recomputing ranks with [rank1]. *)

type cursor = { pos : node; rank : int }

val cursor_of_rank : t -> int -> cursor
val first_child_cursor : t -> cursor -> cursor option
val next_sibling_cursor : t -> cursor -> cursor option
val tag_at : t -> cursor -> int
(** O(1) tag read through the cursor's rank. *)

val content_at : t -> cursor -> string

val footprint : t -> footprint
val total_bytes : footprint -> int
val pp_footprint : Format.formatter -> footprint -> unit

val replace_subtree : t -> node -> Xqp_xml.Tree.t -> t
(** [replace_subtree store node fragment] splices [fragment] over the
    subtree rooted at [node]: only the affected substring of each sequence
    is rewritten (plus directory rebuild), the paper's cheap-update
    argument. The result is a new store; pager write counters record the
    touched byte ranges. *)

val delete_subtree : t -> node -> t
(** Remove the subtree at [node] (must not be the root). *)

val insert_before : t -> node -> Xqp_xml.Tree.t -> t
(** Insert [fragment] as the sibling immediately preceding [node]. *)

val pager : t -> Pager.t option

(** {2 Raw sections}

    The serialization view used by {!Store_io}: the five independent
    sequences of the scheme. Directories are rebuilt by {!of_raw}. *)

type raw = {
  structure : Bitvector.t;      (** balanced parentheses, pre-order *)
  tag_ids : int array;          (** per pre-order rank *)
  symbols : string array;       (** symbol id → label *)
  content_flags : Bitvector.t;  (** has-content, per pre-order rank *)
  contents : string array;      (** content id → text *)
}

val to_raw : t -> raw
val of_raw : ?pager:Pager.t -> raw -> t
(** @raise Invalid_argument on inconsistent section lengths. *)
