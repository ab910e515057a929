(* Path-compressed binary radix trie. Each [Node] stores the full prefix it
   represents; children hold strictly longer prefixes that agree with the
   parent's bits and differ at bit [len parent]: [left] for a 0 bit, [right]
   for 1. A node either carries a value, or is a fork with two non-empty
   children (internal join points are never kept when redundant). *)

type 'a t =
  | Empty
  | Node of { prefix : Prefix.t; value : 'a option; left : 'a t; right : 'a t; count : int }

let empty = Empty

let is_empty t = t = Empty

let cardinal = function
  | Empty -> 0
  | Node n -> n.count

let count_of = cardinal

let mk prefix value left right =
  let c = (match value with Some _ -> 1 | None -> 0) + count_of left + count_of right in
  Node { prefix; value; left; right; count = c }

(* Rebuild a node, collapsing it if it carries no value and has at most one
   child (path compression). *)
let node prefix value left right =
  match (value, left, right) with
  | None, Empty, Empty -> Empty
  | None, (Node _ as child), Empty | None, Empty, (Node _ as child) -> child
  | Some _, _, _ | None, Node _, Node _ -> mk prefix value left right

(* Length of the longest common prefix of [p] and [q]. *)
let common_len p q =
  let limit = min (Prefix.len p) (Prefix.len q) in
  let x = Ipv4.to_int32 (Prefix.network p) and y = Ipv4.to_int32 (Prefix.network q) in
  let diff = Int32.to_int (Int32.logxor x y) land 0xFFFFFFFF in
  if diff = 0 then limit
  else begin
    (* index of highest set bit, counting bit 0 as the MSB of the word *)
    let rec top i = if diff lsr (31 - i) <> 0 then i else top (i + 1) in
    min limit (top 0)
  end

(* Bit [i] of prefix [q]'s network address (valid for i < 32, even beyond
   [len q] since the tail is zero — callers only use i < len q). *)
let qbit q i = Ipv4.bit (Prefix.network q) i

let rec add p v t =
  match t with
  | Empty -> mk p (Some v) Empty Empty
  | Node n ->
    if Prefix.equal p n.prefix then mk p (Some v) n.left n.right
    else begin
      let c = common_len p n.prefix in
      if c = Prefix.len n.prefix then
        (* p is strictly below n.prefix *)
        if qbit p (Prefix.len n.prefix) then mk n.prefix n.value n.left (add p v n.right)
        else mk n.prefix n.value (add p v n.left) n.right
      else if c = Prefix.len p then
        (* n.prefix is strictly below p: insert p above n *)
        if qbit n.prefix (Prefix.len p) then mk p (Some v) Empty t
        else mk p (Some v) t Empty
      else begin
        (* fork at the common prefix *)
        let join = Prefix.make (Prefix.network p) c in
        let leaf = mk p (Some v) Empty Empty in
        if qbit p c then mk join None t leaf else mk join None leaf t
      end
    end

let rec remove p t =
  match t with
  | Empty -> Empty
  | Node n ->
    if Prefix.equal p n.prefix then node n.prefix None n.left n.right
    else if Prefix.subsumes n.prefix p && Prefix.len n.prefix < Prefix.len p then
      if qbit p (Prefix.len n.prefix) then node n.prefix n.value n.left (remove p n.right)
      else node n.prefix n.value (remove p n.left) n.right
    else t

let rec find_opt p t =
  match t with
  | Empty -> None
  | Node n ->
    if Prefix.equal p n.prefix then n.value
    else if Prefix.subsumes n.prefix p && Prefix.len n.prefix < Prefix.len p then
      find_opt p (if qbit p (Prefix.len n.prefix) then n.right else n.left)
    else None

let mem p t = find_opt p t <> None

let update p f t =
  match f (find_opt p t) with
  | Some v -> add p v t
  | None -> remove p t

let longest_match addr t =
  let rec go best t =
    match t with
    | Empty -> best
    | Node n ->
      if Prefix.contains n.prefix addr then begin
        let best =
          match n.value with
          | Some v -> Some (n.prefix, v)
          | None -> best
        in
        if Prefix.len n.prefix >= 32 then best
        else go best (if Ipv4.bit addr (Prefix.len n.prefix) then n.right else n.left)
      end
      else best
  in
  go None t

let descent addr t =
  let rec go acc t =
    match t with
    | Empty -> List.rev acc
    | Node n ->
      let acc = (n.prefix, n.value <> None) :: acc in
      if Prefix.contains n.prefix addr && Prefix.len n.prefix < 32 then
        go acc (if Ipv4.bit addr (Prefix.len n.prefix) then n.right else n.left)
      else List.rev acc
  in
  go [] t

let covering p t =
  let rec go acc t =
    match t with
    | Empty -> List.rev acc
    | Node n ->
      if Prefix.subsumes n.prefix p then begin
        let acc =
          match n.value with
          | Some v -> (n.prefix, v) :: acc
          | None -> acc
        in
        if Prefix.len n.prefix >= Prefix.len p then List.rev acc
        else go acc (if qbit p (Prefix.len n.prefix) then n.right else n.left)
      end
      else List.rev acc
  in
  go [] t

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Node n ->
    let acc =
      match n.value with
      | Some v -> f n.prefix v acc
      | None -> acc
    in
    fold f n.right (fold f n.left acc)

let covered p t =
  (* descend to the subtree rooted at/below p, then collect everything *)
  let rec go t =
    match t with
    | Empty -> []
    | Node n ->
      if Prefix.subsumes p n.prefix then
        List.rev (fold (fun q v acc -> (q, v) :: acc) t [])
      else if Prefix.subsumes n.prefix p then
        if Prefix.len n.prefix = Prefix.len p then
          (* same prefix: n.prefix = p, handled by first branch *)
          []
        else go (if qbit p (Prefix.len n.prefix) then n.right else n.left)
      else []
  in
  go t

let iter f t = fold (fun p v () -> f p v) t ()

let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let of_list l = List.fold_left (fun t (p, v) -> add p v t) Empty l

let rec map f t =
  match t with
  | Empty -> Empty
  | Node n ->
    Node
      { prefix = n.prefix;
        value = Option.map f n.value;
        left = map f n.left;
        right = map f n.right;
        count = n.count;
      }

(* Both tries are canonical in shape (a node's prefix is fixed by the
   keys below it), so a physically shared subtree sits at the same place
   in both and the walk can stop there, as [shared_nodes] does. *)
let rec fold_diff f a b acc =
  if a == b then acc
  else begin
    let removed t acc = fold (fun p v acc -> f p (Some v) None acc) t acc in
    let added t acc = fold (fun p v acc -> f p None (Some v) acc) t acc in
    match (a, b) with
    | Empty, _ -> added b acc
    | _, Empty -> removed a acc
    | Node x, Node y ->
      if Prefix.equal x.prefix y.prefix then begin
        let acc =
          match (x.value, y.value) with
          | Some v, Some w when v == w -> acc
          | None, None -> acc
          | before, after -> f x.prefix before after acc
        in
        fold_diff f x.right y.right (fold_diff f x.left y.left acc)
      end
      else if Prefix.subsumes x.prefix y.prefix then begin
        (* [b] lies wholly under one child of [x] *)
        let acc = match x.value with Some v -> f x.prefix (Some v) None acc | None -> acc in
        if qbit y.prefix (Prefix.len x.prefix) then fold_diff f x.right b (removed x.left acc)
        else fold_diff f x.left b (removed x.right acc)
      end
      else if Prefix.subsumes y.prefix x.prefix then begin
        let acc = match y.value with Some w -> f y.prefix None (Some w) acc | None -> acc in
        if qbit x.prefix (Prefix.len y.prefix) then fold_diff f a y.right (added y.left acc)
        else fold_diff f a y.left (added y.right acc)
      end
      else added b (removed a acc)
  end

let filter pred t =
  fold (fun p v acc -> if pred p v then add p v acc else acc) t Empty

let equal eq a b =
  let la = to_list a and lb = to_list b in
  List.length la = List.length lb
  && List.for_all2 (fun (p, v) (q, w) -> Prefix.equal p q && eq v w) la lb

(* ------------------------------------------------------------------ *)
(* Physical structural sharing                                         *)
(* ------------------------------------------------------------------ *)

let rec node_count = function
  | Empty -> 0
  | Node n -> 1 + node_count n.left + node_count n.right

let shared_nodes a b =
  (* Index [a]'s subtree roots by their prefix, then walk [b]: a node of
     [b] that is physically ([==]) a subtree of [a] contributes its whole
     subtree (physical equality is hereditary — a shared block's children
     are reachable from [a] too) and the walk stops there. *)
  let tbl : (Prefix.t, 'a t list) Hashtbl.t = Hashtbl.create 256 in
  let rec index t =
    match t with
    | Empty -> ()
    | Node n ->
      let bucket = match Hashtbl.find_opt tbl n.prefix with Some l -> l | None -> [] in
      Hashtbl.replace tbl n.prefix (t :: bucket);
      index n.left;
      index n.right
  in
  index a;
  let rec walk acc t =
    match t with
    | Empty -> acc
    | Node n ->
      let hit =
        match Hashtbl.find_opt tbl n.prefix with
        | Some bucket -> List.exists (fun x -> x == t) bucket
        | None -> false
      in
      if hit then acc + node_count t else walk (walk acc n.left) n.right
  in
  walk 0 b
