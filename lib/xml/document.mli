(** Array-packed documents: the query-side representation.

    A document is the pre-order linearization of a labeled ordered tree into
    parallel arrays. A node is identified by its pre-order rank (an [int]),
    so document order is integer order, and the interval encoding of
    DeHann et al. [1] — [(start, end, level)] with [start = pre-order rank]
    and [end = start + subtree_size - 1] — falls out of the layout for free.
    Structural joins, tag indexes and statistics all work over these ids.

    Attribute nodes are materialized as children of their owner element,
    placed before the element's content children; their {!kind} keeps the
    child axis from seeing them. *)

type kind = Element | Attribute | Text | Comment | Pi

type node = int
(** Pre-order rank of a node; the root is [0]. *)

type t

(** Pre-order construction from open/close events — the one code path
    that fills the arrays, whether the source is a {!Tree.t} or a packed
    store. A leaf (text, attribute, …) is an [open_node] immediately
    followed by [close_node]; an element's attributes must be emitted
    before its content children. *)
module Builder : sig
  type builder

  val create : nodes:int -> Symtab.t -> builder
  (** [nodes] is the exact node count the events will describe; [symtab]
      is the table the [sym] arguments of {!open_node} index. *)

  val open_node : builder -> kind -> int -> string -> unit
  (** [open_node b kind sym content] enters the next node in pre-order.
      [sym] is the name's symbol ([-1] for text and comment nodes),
      [content] its own content ([""] for elements).
      @raise Invalid_argument past [nodes] nodes, on a second root, a child
      of a non-element, or an attribute after a content child. *)

  val close_node : builder -> unit
  (** @raise Invalid_argument without a matching {!open_node}. *)

  val finish : builder -> t
  (** @raise Invalid_argument on an unclosed node or fewer than [nodes]
      nodes. *)
end

val of_tree : Tree.t -> t
(** [of_tree tree] packs [tree] through {!Builder}. The symbol table
    interns element and attribute names in pre-order of first
    occurrence. *)

val to_tree : t -> node -> Tree.t
(** [to_tree doc node] rebuilds the algebraic subtree rooted at [node]. *)

val of_string : ?strip:bool -> string -> t
(** [of_string s] is [of_tree (Xml_parser.parse_string s)]; [~strip:true]
    drops whitespace-only text nodes first. *)

val root : t -> node
(** The document element (always [0]). *)

val node_count : t -> int
(** Total number of nodes. *)

val symtab : t -> Symtab.t
(** The document's symbol table. *)

val kind : t -> node -> kind
val name_id : t -> node -> int
(** Symbol id of an element/attribute name; [-1] for text/comment nodes. *)

val name : t -> node -> string
(** Element/attribute name; ["#text"], ["#comment"], ["#pi"] otherwise. *)

val content : t -> node -> string
(** Own content: text-node characters, attribute value, comment body, PI
    body; [""] for elements. *)

val parent : t -> node -> node option
val first_child : t -> node -> node option
(** First child {e including} attribute nodes; see {!first_content_child}. *)

val first_content_child : t -> node -> node option
(** First non-attribute child. *)

val next_sibling : t -> node -> node option
val prev_sibling : t -> node -> node option
val level : t -> node -> int
(** Depth; the root has level 0. Attribute nodes are one below their owner. *)

val subtree_size : t -> node -> int
(** Number of nodes in the subtree rooted at [node], including itself. *)

val subtree_end : t -> node -> node
(** Largest pre-order id in the subtree: [node + subtree_size - 1]. *)

val postorder : t -> node -> int
(** Post-order rank of [node]. *)

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor doc a d]: is [a] a proper ancestor of [d]? O(1) via the
    interval encoding. *)

val is_parent : t -> node -> node -> bool
(** [is_parent doc p c]: is [p] the parent of [c]? *)

val children : t -> node -> node list
(** Content children (attributes excluded), in document order. *)

val attributes : t -> node -> node list
(** Attribute nodes of an element, in document order. *)

val attribute_value : t -> node -> string -> string option
(** [attribute_value doc element key] looks an attribute up by name. *)

val iter_children : t -> node -> (node -> unit) -> unit
(** Iterate over content children in document order. *)

val iter_descendants : t -> node -> (node -> unit) -> unit
(** Iterate over proper descendants (attributes included) in document
    order. *)

val fold_descendants : t -> node -> ('a -> node -> 'a) -> 'a -> 'a
val text_content : t -> node -> string
(** Concatenated descendant-or-self text, in document order (attribute
    value for attribute nodes). *)

val typed_value : t -> node -> string
(** The string value used by value predicates: {!text_content}. *)

val nodes_by_name : t -> int -> node list
(** [nodes_by_name doc sym] is every element/attribute node whose name id is
    [sym], in document order. Precomputed at pack time — this is the tag
    index the join-based operators scan. *)

val nodes_by_name_array : t -> int -> node array
(** Array view of {!nodes_by_name} (shared; do not mutate). *)

val element_count : t -> int
(** Number of element nodes. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node counts by kind, depth, distinct tags. *)
