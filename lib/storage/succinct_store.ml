module Xml = Xqp_xml

type node = int
type kind = Element | Attribute | Text | Comment | Pi

type footprint = {
  structure_bytes : int;
  tag_bytes : int;
  content_bytes : int;
  index_bytes : int;
}

type t = {
  bp : Balanced_parens.t;
  symtab : Xml.Symtab.t;
  tags : Bytes.t; (* tag_width bytes per pre-order rank *)
  tag_width : int;
  has_content : Bitvector.t; (* over pre-order ranks *)
  contents : Content_store.t;
  pager : Pager.t option;
}

let tag_width_for symbols = if symbols <= 256 then 1 else 2

(* Callers keep [rank] below the node count. *)
let decode_tag tags width rank =
  let off = rank * width in
  if width = 1 then Char.code (Bytes.unsafe_get tags off)
  else Char.code (Bytes.unsafe_get tags off) lor (Char.code (Bytes.unsafe_get tags (off + 1)) lsl 8)

let read_tag t rank =
  (match t.pager with
  | Some pager ->
    Pager.read pager ~region:Pager.region_tags ~off:(rank * t.tag_width) ~len:t.tag_width
  | None -> ());
  decode_tag t.tags t.tag_width rank

let write_tag tags width rank tag =
  let off = rank * width in
  Bytes.unsafe_set tags off (Char.unsafe_chr (tag land 0xFF));
  if width = 2 then Bytes.unsafe_set tags (off + 1) (Char.unsafe_chr ((tag lsr 8) land 0xFF))

let kind_of_label label =
  if String.length label = 0 then Element
  else
    match label.[0] with
    | '@' -> Attribute
    | '?' -> Pi
    | '#' -> if String.equal label "#text" then Text else Comment
    | _ -> Element

(* One pre-order walk over the packed document: an open paren, a label
   interned in first-occurrence order and the own content of every node,
   a close paren each time the walk leaves a subtree. *)
let of_document ?pager doc =
  let module Doc = Xml.Document in
  let n = Doc.node_count doc in
  let symtab = Xml.Symtab.create () in
  let bits = Bitvector.builder () in
  let has_content = Bitvector.builder () in
  let contents = Content_store.builder () in
  let tag_ids = Array.make n 0 in
  let open_ends = ref [] in
  let close_before id =
    while (match !open_ends with stop :: _ -> stop < id | [] -> false) do
      Bitvector.push bits false;
      open_ends := List.tl !open_ends
    done
  in
  for id = 0 to n - 1 do
    close_before id;
    Bitvector.push bits true;
    let kind = Doc.kind doc id in
    let label =
      match kind with
      | Doc.Element -> Doc.name doc id
      | Doc.Attribute -> "@" ^ Doc.name doc id
      | Doc.Text -> "#text"
      | Doc.Comment -> "#comment"
      | Doc.Pi -> "?" ^ Doc.name doc id
    in
    tag_ids.(id) <- Xml.Symtab.intern symtab label;
    Bitvector.push has_content (kind <> Doc.Element);
    if kind <> Doc.Element then ignore (Content_store.add contents (Doc.content doc id));
    open_ends := Doc.subtree_end doc id :: !open_ends
  done;
  close_before n;
  let width = tag_width_for (Xml.Symtab.cardinal symtab) in
  let tags = Bytes.make (n * width) '\000' in
  Array.iteri (write_tag tags width) tag_ids;
  {
    bp = Balanced_parens.of_bitvector (Bitvector.build bits);
    symtab;
    tags;
    tag_width = width;
    has_content = Bitvector.build has_content;
    contents = Content_store.build contents;
    pager;
  }

let of_tree ?pager tree = of_document ?pager (Xml.Document.of_tree tree)

let node_count t = Balanced_parens.node_count t.bp
let symtab t = t.symtab
let root t = Balanced_parens.root t.bp
let pager t = t.pager

let touch_structure t pos len_bits =
  match t.pager with
  | Some pager ->
    Pager.read pager ~region:Pager.region_structure ~off:(pos / 8) ~len:(max 1 (len_bits / 8))
  | None -> ()

let first_child t pos =
  touch_structure t pos 2;
  Balanced_parens.first_child t.bp pos

let next_sibling t pos =
  let close = Balanced_parens.find_close t.bp pos in
  touch_structure t pos (close - pos + 2);
  Balanced_parens.next_sibling t.bp pos

let parent t pos =
  touch_structure t pos 2;
  Balanced_parens.enclose t.bp pos

let preorder_rank t pos = Balanced_parens.preorder_rank t.bp pos
let node_of_rank t rank = Balanced_parens.node_of_rank t.bp rank
let tag_id t pos = read_tag t (preorder_rank t pos)
let tag_name t pos = Xml.Symtab.name t.symtab (tag_id t pos)
let kind_of t pos = kind_of_label (tag_name t pos)
let subtree_size t pos = Balanced_parens.subtree_size t.bp pos
let depth t pos = Balanced_parens.depth t.bp pos

let content t pos =
  let rank = preorder_rank t pos in
  if Bitvector.get t.has_content rank then begin
    let id = Bitvector.rank1 t.has_content rank in
    let s = Content_store.get t.contents id in
    (match t.pager with
    | Some pager -> Pager.read pager ~region:Pager.region_content ~off:id ~len:(String.length s)
    | None -> ());
    s
  end
  else ""

let iter_nodes t f =
  let len = Balanced_parens.length t.bp in
  touch_structure t 0 len;
  for pos = 0 to len - 1 do
    if Balanced_parens.is_open t.bp pos then f pos
  done

type cursor = { pos : node; rank : int }

let cursor_of_rank t rank = { pos = node_of_rank t rank; rank }

let first_child_cursor t cursor =
  match first_child t cursor.pos with
  | Some pos -> Some { pos; rank = cursor.rank + 1 }
  | None -> None

let next_sibling_cursor t cursor =
  let close = Balanced_parens.find_close t.bp cursor.pos in
  touch_structure t cursor.pos (close - cursor.pos + 2);
  let after = close + 1 in
  if after < Balanced_parens.length t.bp && Balanced_parens.is_open t.bp after then
    Some { pos = after; rank = cursor.rank + ((close - cursor.pos + 1) / 2) }
  else None

let tag_at t cursor = read_tag t cursor.rank

let content_at t cursor =
  if Bitvector.get t.has_content cursor.rank then begin
    let id = Bitvector.rank1 t.has_content cursor.rank in
    Content_store.get t.contents id
  end
  else ""

let text_content t pos =
  match kind_of t pos with
  | Text | Attribute -> content t pos
  | Comment | Pi -> ""
  | Element ->
    let buffer = Buffer.create 32 in
    let stop = Balanced_parens.find_close t.bp pos in
    for p = pos + 1 to stop - 1 do
      if Balanced_parens.is_open t.bp p && kind_of t p = Text then
        Buffer.add_string buffer (content t p)
    done;
    Buffer.contents buffer

(* One left-to-right scan of the parenthesis bits, reading tags by rank and
   contents in order (content ids are dense in pre-order, so no rank1 per
   node). Each store symbol is mapped to a document symbol at its first
   occurrence, which interns names in the order [Document.of_tree] would.
   The builder validates the events, which makes the scan the structure
   check: a single flipped bit changes the number of opens, and anything
   that is not one balanced tree is refused before it can reach an
   engine. *)
let to_document t =
  let module Doc = Xml.Document in
  (* the node count the tag section was written for, not the popcount of
     the bits being checked *)
  let n = Bytes.length t.tags / t.tag_width in
  let bits = Balanced_parens.bits t.bp in
  let symtab = Xml.Symtab.create () in
  let b = Doc.Builder.create ~nodes:n symtab in
  let nsym = Xml.Symtab.cardinal t.symtab in
  let kinds = Array.make nsym Doc.Element in
  let syms = Array.make nsym (-2) (* -2: not mapped yet *) in
  let map tag =
    let label = Xml.Symtab.name t.symtab tag in
    let strip () = String.sub label 1 (String.length label - 1) in
    let kind, sym =
      match kind_of_label label with
      | Element -> (Doc.Element, Xml.Symtab.intern symtab label)
      | Attribute -> (Doc.Attribute, Xml.Symtab.intern symtab (strip ()))
      | Pi -> (Doc.Pi, Xml.Symtab.intern symtab (strip ()))
      | Text -> (Doc.Text, -1)
      | Comment -> (Doc.Comment, -1)
    in
    kinds.(tag) <- kind;
    syms.(tag) <- sym
  in
  let rank = ref 0 and next_content = ref 0 in
  match
    for pos = 0 to Bitvector.length bits - 1 do
      if not (Bitvector.get bits pos) then Doc.Builder.close_node b
      else begin
        let r = !rank in
        if r = n then invalid_arg "more opens than nodes";
        let tag = decode_tag t.tags t.tag_width r in
        if syms.(tag) = -2 then map tag;
        let content =
          if Bitvector.get t.has_content r then begin
            incr next_content;
            Content_store.get t.contents (!next_content - 1)
          end
          else ""
        in
        Doc.Builder.open_node b kinds.(tag) syms.(tag) content;
        rank := r + 1
      end
    done;
    Doc.Builder.finish b
  with
  | doc -> doc
  | exception Invalid_argument what -> failwith ("malformed structure: " ^ what)

(* The algebraic tree is the decoded document's; the scan reads the whole
   structure, which is what a pager is charged with. *)
let to_tree t =
  touch_structure t 0 (Balanced_parens.length t.bp);
  Xml.Document.to_tree (to_document t) 0

let footprint t =
  {
    structure_bytes = Balanced_parens.size_in_bytes t.bp;
    tag_bytes = Bytes.length t.tags;
    content_bytes = Content_store.size_in_bytes t.contents;
    index_bytes = Bitvector.size_in_bytes t.has_content;
  }

let total_bytes f = f.structure_bytes + f.tag_bytes + f.content_bytes + f.index_bytes

let pp_footprint ppf f =
  Format.fprintf ppf "structure=%dB tags=%dB content=%dB index=%dB total=%dB" f.structure_bytes
    f.tag_bytes f.content_bytes f.index_bytes (total_bytes f)

(* --- Updates ------------------------------------------------------- *)

let splice_range t ~first_rank ~node_count_removed ~bit_off ~bit_len fragment =
  (* fragment = None means pure deletion. *)
  let frag = Option.map of_tree fragment in
  let frag_bits = match frag with Some f -> Balanced_parens.bits f.bp | None -> Bitvector.of_bools [] in
  let frag_nodes = match frag with Some f -> node_count f | None -> 0 in
  (* Structure bits: one splice, reusing directory blocks before the edit. *)
  let new_bp = Balanced_parens.splice t.bp ~off:bit_off ~removed:bit_len ~insert:frag_bits in
  (match t.pager with
  | Some pager ->
    (* The rewrite touches the spliced byte range and everything after it
       (shifted), which is the honest cost of an in-place file splice when
       lengths differ; when lengths match only the fragment range moves. *)
    let moved =
      if Bitvector.length frag_bits = bit_len then bit_len / 8
      else (Balanced_parens.length new_bp - bit_off) / 8
    in
    Pager.write pager ~region:Pager.region_structure ~off:(bit_off / 8) ~len:(max 1 moved)
  | None -> ());
  (* Tags: merge symbol tables (fragment symbols interned into ours). *)
  let n_old = node_count t in
  let n_new = n_old - node_count_removed + frag_nodes in
  let mapped_frag_tag rank =
    match frag with
    | None -> assert false
    | Some f -> Xml.Symtab.intern t.symtab (Xml.Symtab.name f.symtab (read_tag f rank))
  in
  (* Interning may overflow a 1-byte width: recompute. *)
  let frag_tags = Array.init frag_nodes (fun r -> mapped_frag_tag r) in
  let width = tag_width_for (Xml.Symtab.cardinal t.symtab) in
  let tags = Bytes.make (n_new * width) '\000' in
  let copy_tag ~src_rank ~dst_rank =
    write_tag tags width dst_rank (decode_tag t.tags t.tag_width src_rank)
  in
  for r = 0 to first_rank - 1 do
    copy_tag ~src_rank:r ~dst_rank:r
  done;
  Array.iteri (fun i tag -> write_tag tags width (first_rank + i) tag) frag_tags;
  for r = first_rank + node_count_removed to n_old - 1 do
    copy_tag ~src_rank:r ~dst_rank:(r - node_count_removed + frag_nodes)
  done;
  (match t.pager with
  | Some pager ->
    Pager.write pager ~region:Pager.region_tags ~off:(first_rank * width)
      ~len:(max 1 ((n_new - first_rank) * width))
  | None -> ());
  (* Contents. *)
  let first_content = Bitvector.rank1 t.has_content first_rank in
  let removed_content =
    Bitvector.rank1 t.has_content (first_rank + node_count_removed) - first_content
  in
  let frag_content_list =
    match frag with
    | None -> []
    | Some f ->
      let acc = ref [] in
      Content_store.iter f.contents (fun _ s -> acc := s :: !acc);
      List.rev !acc
  in
  let contents = Content_store.splice t.contents first_content removed_content frag_content_list in
  (* has_content bitvector: three byte-blitted slices. *)
  let hc = Bitvector.builder () in
  Bitvector.append_slice hc t.has_content 0 first_rank;
  (match frag with
  | Some f -> Bitvector.append_slice hc f.has_content 0 frag_nodes
  | None -> ());
  Bitvector.append_slice hc t.has_content (first_rank + node_count_removed)
    (n_old - first_rank - node_count_removed);
  {
    bp = new_bp;
    symtab = t.symtab;
    tags;
    tag_width = width;
    has_content = Bitvector.build hc;
    contents;
    pager = t.pager;
  }

let replace_subtree t pos fragment =
  let close = Balanced_parens.find_close t.bp pos in
  splice_range t ~first_rank:(preorder_rank t pos)
    ~node_count_removed:(subtree_size t pos) ~bit_off:pos ~bit_len:(close - pos + 1)
    (Some fragment)

let delete_subtree t pos =
  if pos = root t then invalid_arg "Succinct_store.delete_subtree: root";
  let close = Balanced_parens.find_close t.bp pos in
  splice_range t ~first_rank:(preorder_rank t pos)
    ~node_count_removed:(subtree_size t pos) ~bit_off:pos ~bit_len:(close - pos + 1) None

type raw = {
  structure : Bitvector.t;
  tag_ids : int array;
  symbols : string array;
  content_flags : Bitvector.t;
  contents : string array;
}

let to_raw t =
  let n = node_count t in
  let tag_ids = Array.init n (fun rank -> read_tag t rank) in
  let symbols = Array.init (Xml.Symtab.cardinal t.symtab) (Xml.Symtab.name t.symtab) in
  let contents = Array.init (Content_store.count t.contents) (Content_store.get t.contents) in
  {
    structure = Balanced_parens.bits t.bp;
    tag_ids;
    symbols;
    content_flags = t.has_content;
    contents;
  }

let of_raw ?pager raw =
  let n = Array.length raw.tag_ids in
  if Bitvector.length raw.structure <> 2 * n then
    invalid_arg "Succinct_store.of_raw: structure/tag length mismatch";
  if Bitvector.length raw.content_flags <> n then
    invalid_arg "Succinct_store.of_raw: content-flag length mismatch";
  if Bitvector.pop_count raw.content_flags <> Array.length raw.contents then
    invalid_arg "Succinct_store.of_raw: content count mismatch";
  let symtab = Xml.Symtab.create () in
  Array.iter (fun name -> ignore (Xml.Symtab.intern symtab name)) raw.symbols;
  let nsym = Xml.Symtab.cardinal symtab in
  Array.iter
    (fun tag -> if tag < 0 || tag >= nsym then invalid_arg "Succinct_store.of_raw: bad tag id")
    raw.tag_ids;
  let width = tag_width_for nsym in
  let tags = Bytes.make (n * width) '\000' in
  Array.iteri (fun rank tag -> write_tag tags width rank tag) raw.tag_ids;
  let content_builder = Content_store.builder () in
  Array.iter (fun s -> ignore (Content_store.add content_builder s)) raw.contents;
  {
    bp = Balanced_parens.of_bitvector raw.structure;
    symtab;
    tags;
    tag_width = width;
    has_content = raw.content_flags;
    contents = Content_store.build content_builder;
    pager;
  }

let insert_before t pos fragment =
  splice_range t ~first_rank:(preorder_rank t pos) ~node_count_removed:0 ~bit_off:pos ~bit_len:0
    (Some fragment)
