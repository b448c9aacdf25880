type kind = Element | Attribute | Text | Comment | Pi
type node = int

type t = {
  symtab : Symtab.t;
  kinds : kind array;
  names : int array;
  parents : int array;
  first_children : int array;
  next_siblings : int array;
  sizes : int array;
  levels : int array;
  postorders : int array;
  contents : string array;
  by_name : node array array; (* symbol id -> nodes in document order *)
  n_elements : int;
}

(* Number of packed nodes a Tree.t occupies (attributes count). *)
let rec packed_count tree =
  match tree with
  | Tree.Element e ->
    List.fold_left (fun acc c -> acc + packed_count c) (1 + List.length e.attrs) e.children
  | Tree.Text _ | Tree.Comment _ | Tree.Pi _ -> 1

(* Pre-order construction: every constructor (trees, packed stores) emits
   open/close events into one builder, so the arrays have one code path.
   The node count is known up front (a tree is counted, a store records
   it), so the arrays are allocated once at their final size. The stack
   holds the open nodes; [last] the most recent child of each, which
   threads first_child/next_sibling without a second pass. *)
module Builder = struct
  (* [doc] is filled in place; its tag index is computed by [finish]. *)
  type builder = {
    doc : t;
    mutable len : int;
    mutable post : int;
    mutable stack : int array;
    mutable last : int array;
    mutable depth : int;
  }

  let create ~nodes symtab =
    {
      doc =
        {
          symtab;
          kinds = Array.make nodes Element;
          names = Array.make nodes (-1);
          parents = Array.make nodes (-1);
          first_children = Array.make nodes (-1);
          next_siblings = Array.make nodes (-1);
          sizes = Array.make nodes 1;
          levels = Array.make nodes 0;
          postorders = Array.make nodes 0;
          contents = Array.make nodes "";
          by_name = [||];
          n_elements = 0;
        };
      len = 0;
      post = 0;
      stack = Array.make 16 0;
      last = Array.make 16 (-1);
      depth = 0;
    }

  let widen a fill = Array.append a (Array.make (Array.length a) fill)

  let open_node b kind sym content =
    let doc = b.doc and d = b.depth in
    if d = 0 && b.len > 0 then invalid_arg "Document.Builder: second root";
    if b.len = Array.length doc.kinds then invalid_arg "Document.Builder: more nodes than announced";
    let id = b.len in
    b.len <- id + 1;
    if d > 0 then begin
      let parent = b.stack.(d - 1) in
      if doc.kinds.(parent) <> Element then invalid_arg "Document.Builder: child of a non-element";
      let prev = b.last.(d - 1) in
      if kind = Attribute && prev <> -1 && doc.kinds.(prev) <> Attribute then
        invalid_arg "Document.Builder: attribute after content";
      if prev = -1 then doc.first_children.(parent) <- id else doc.next_siblings.(prev) <- id;
      b.last.(d - 1) <- id;
      doc.parents.(id) <- parent
    end;
    doc.kinds.(id) <- kind;
    doc.names.(id) <- sym;
    doc.levels.(id) <- d;
    doc.contents.(id) <- content;
    if d = Array.length b.stack then begin
      b.stack <- widen b.stack 0;
      b.last <- widen b.last (-1)
    end;
    b.stack.(d) <- id;
    b.last.(d) <- -1;
    b.depth <- d + 1

  let close_node b =
    if b.depth = 0 then invalid_arg "Document.Builder: close without open";
    let d = b.depth - 1 in
    let id = b.stack.(d) in
    b.doc.sizes.(id) <- b.len - id;
    b.doc.postorders.(id) <- b.post;
    b.post <- b.post + 1;
    b.depth <- d

  let finish b =
    let { kinds; names; symtab; _ } = b.doc in
    let n = b.len in
    if b.depth <> 0 then invalid_arg "Document.Builder: unclosed node";
    if n = 0 || n <> Array.length kinds then invalid_arg "Document.Builder: node count";
    (* Per-tag node lists, in document order. *)
    let tags = Symtab.cardinal symtab in
    let counts = Array.make tags 0 in
    let n_elements = ref 0 in
    for id = 0 to n - 1 do
      match kinds.(id) with
      | Element ->
        incr n_elements;
        counts.(names.(id)) <- counts.(names.(id)) + 1
      | Attribute -> counts.(names.(id)) <- counts.(names.(id)) + 1
      | Text | Comment | Pi -> ()
    done;
    let by_name = Array.init tags (fun sym -> Array.make counts.(sym) 0) in
    let fill = Array.make tags 0 in
    for id = 0 to n - 1 do
      match kinds.(id) with
      | Element | Attribute ->
        let sym = names.(id) in
        by_name.(sym).(fill.(sym)) <- id;
        fill.(sym) <- fill.(sym) + 1
      | Text | Comment | Pi -> ()
    done;
    { b.doc with by_name; n_elements = !n_elements }
end

let of_tree tree =
  let symtab = Symtab.create () in
  let b = Builder.create ~nodes:(packed_count tree) symtab in
  let leaf kind sym content =
    Builder.open_node b kind sym content;
    Builder.close_node b
  in
  let rec pack = function
    | Tree.Text s -> leaf Text (-1) s
    | Tree.Comment s -> leaf Comment (-1) s
    | Tree.Pi (target, body) -> leaf Pi (Symtab.intern symtab target) body
    | Tree.Element e ->
      Builder.open_node b Element (Symtab.intern symtab e.name) "";
      List.iter (fun (key, value) -> leaf Attribute (Symtab.intern symtab key) value) e.attrs;
      List.iter pack e.children;
      Builder.close_node b
  in
  pack tree;
  Builder.finish b

let of_string ?strip s = of_tree (Xml_parser.parse_string ?strip s)
let root (_ : t) = 0
let node_count doc = Array.length doc.kinds
let symtab doc = doc.symtab
let kind doc id = doc.kinds.(id)
let name_id doc id = doc.names.(id)

let name doc id =
  match doc.kinds.(id) with
  | Element | Attribute | Pi -> Symtab.name doc.symtab doc.names.(id)
  | Text -> "#text"
  | Comment -> "#comment"

let content doc id = doc.contents.(id)
let parent doc id = if doc.parents.(id) = -1 then None else Some doc.parents.(id)
let first_child doc id = if doc.first_children.(id) = -1 then None else Some doc.first_children.(id)

let next_sibling doc id =
  if doc.next_siblings.(id) = -1 then None else Some doc.next_siblings.(id)

let first_content_child doc id =
  let rec skip child =
    if child = -1 then None
    else if doc.kinds.(child) = Attribute then skip doc.next_siblings.(child)
    else Some child
  in
  skip doc.first_children.(id)

let prev_sibling doc id =
  match doc.parents.(id) with
  | -1 -> None
  | p ->
    let rec walk child prev =
      if child = id then prev else walk doc.next_siblings.(child) (Some child)
    in
    walk doc.first_children.(p) None

let level doc id = doc.levels.(id)
let subtree_size doc id = doc.sizes.(id)
let subtree_end doc id = id + doc.sizes.(id) - 1
let postorder doc id = doc.postorders.(id)
let is_ancestor doc a d = a < d && d <= subtree_end doc a
let is_parent doc p c = doc.parents.(c) = p

let iter_children doc id f =
  let rec loop child =
    if child <> -1 then begin
      if doc.kinds.(child) <> Attribute then f child;
      loop doc.next_siblings.(child)
    end
  in
  loop doc.first_children.(id)

let children doc id =
  let acc = ref [] in
  iter_children doc id (fun c -> acc := c :: !acc);
  List.rev !acc

let attributes doc id =
  let rec loop child acc =
    if child = -1 then List.rev acc
    else if doc.kinds.(child) = Attribute then loop doc.next_siblings.(child) (child :: acc)
    else List.rev acc (* attributes precede content children *)
  in
  loop doc.first_children.(id) []

let attribute_value doc id key =
  let rec find child =
    if child = -1 then None
    else if doc.kinds.(child) = Attribute then
      if String.equal (Symtab.name doc.symtab doc.names.(child)) key then Some doc.contents.(child)
      else find doc.next_siblings.(child)
    else None
  in
  find doc.first_children.(id)

let iter_descendants doc id f =
  let stop = subtree_end doc id in
  for d = id + 1 to stop do
    f d
  done

let fold_descendants doc id f init =
  let stop = subtree_end doc id in
  let rec loop acc d = if d > stop then acc else loop (f acc d) (d + 1) in
  loop init (id + 1)

let text_content doc id =
  match doc.kinds.(id) with
  | Text | Attribute -> doc.contents.(id)
  | Comment | Pi -> ""
  | Element ->
    let buffer = Buffer.create 32 in
    let stop = subtree_end doc id in
    for d = id + 1 to stop do
      if doc.kinds.(d) = Text then Buffer.add_string buffer doc.contents.(d)
    done;
    Buffer.contents buffer

let typed_value = text_content

let nodes_by_name_array doc sym =
  if sym < 0 || sym >= Array.length doc.by_name then [||] else doc.by_name.(sym)

let nodes_by_name doc sym = Array.to_list (nodes_by_name_array doc sym)
let element_count doc = doc.n_elements

let rec to_tree doc id =
  match doc.kinds.(id) with
  | Text -> Tree.Text doc.contents.(id)
  | Comment -> Tree.Comment doc.contents.(id)
  | Pi -> Tree.Pi (name doc id, doc.contents.(id))
  | Attribute -> invalid_arg "Document.to_tree: attribute node"
  | Element ->
    let attrs = List.map (fun a -> (name doc a, doc.contents.(a))) (attributes doc id) in
    let children = List.map (to_tree doc) (children doc id) in
    Tree.Element { name = name doc id; attrs; children }

let pp_stats ppf doc =
  let n = node_count doc in
  let count k = Array.fold_left (fun acc k' -> if k' = k then acc + 1 else acc) 0 doc.kinds in
  let max_level = Array.fold_left max 0 doc.levels in
  Format.fprintf ppf "nodes=%d elements=%d attributes=%d texts=%d depth=%d tags=%d" n
    doc.n_elements (count Attribute) (count Text) max_level (Symtab.cardinal doc.symtab)
