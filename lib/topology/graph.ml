type node = int
type link = { src : node; dst : node; index : int }

type t = {
  nodes : int;
  mutable link_list : link list;  (* reverse insertion order *)
  mutable n_links : int;
  out : link list array;  (* per-node outgoing links, reverse order *)
  mutable out_rev : link list array;  (* kept in insertion order lazily *)
  adj : (int, link) Hashtbl.t;  (* key = src * nodes + dst *)
  mutable link_array : link array option;  (* memoised [links] *)
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Graph.create: nodes must be positive";
  {
    nodes;
    link_list = [];
    n_links = 0;
    out = Array.make nodes [];
    out_rev = Array.make nodes [];
    adj = Hashtbl.create (4 * nodes);
    link_array = None;
  }

let key t u v = (u * t.nodes) + v

let check_node t u =
  if u < 0 || u >= t.nodes then invalid_arg "Graph: node out of range"

let has_edge t u v =
  check_node t u;
  check_node t v;
  Hashtbl.mem t.adj (key t u v)

let add_directed t u v =
  let l = { src = u; dst = v; index = t.n_links } in
  t.n_links <- t.n_links + 1;
  t.link_list <- l :: t.link_list;
  t.out.(u) <- l :: t.out.(u);
  t.out_rev.(u) <- [];  (* invalidate cached order *)
  t.link_array <- None;
  Hashtbl.replace t.adj (key t u v) l

let add_edge t u v =
  check_node t u;
  check_node t v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if Hashtbl.mem t.adj (key t u v) then invalid_arg "Graph.add_edge: duplicate edge";
  add_directed t u v;
  add_directed t v u

let node_count t = t.nodes
let link_count t = t.n_links
let edge_count t = t.n_links / 2

let[@lipsin.allow_race
     "memo write; pre-forced single-domain by Service.warm_graph \
      before any worker spawns"] out_links t u =
  check_node t u;
  match t.out_rev.(u) with
  | [] when t.out.(u) <> [] ->
    let ordered = List.rev t.out.(u) in
    t.out_rev.(u) <- ordered;
    ordered
  | cached -> cached

let out_degree t u =
  check_node t u;
  List.length t.out.(u)

let neighbors t u = List.map (fun l -> l.dst) (out_links t u)

let[@lipsin.allow_race
     "memo write; pre-forced single-domain by Service.warm_graph \
      before any worker spawns"] link_array t =
  match t.link_array with
  | Some a -> a
  | None ->
    let a = Array.make t.n_links { src = 0; dst = 0; index = 0 } in
    List.iter (fun l -> a.(l.index) <- l) t.link_list;
    t.link_array <- Some a;
    a

let links t = Array.copy (link_array t)

let link t i =
  if i < 0 || i >= t.n_links then invalid_arg "Graph.link: index out of range";
  (link_array t).(i)

let find_link t ~src ~dst =
  check_node t src;
  check_node t dst;
  Hashtbl.find_opt t.adj (key t src dst)

let reverse_link t l =
  match find_link t ~src:l.dst ~dst:l.src with
  | Some r -> r
  | None -> invalid_arg "Graph.reverse_link: link not in graph"

let iter_links t f = List.iter f (List.rev t.link_list)

let fold_nodes t ~init ~f =
  let acc = ref init in
  for u = 0 to t.nodes - 1 do
    acc := f !acc u
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "graph(%d nodes, %d edges, %d directed links)" t.nodes
    (edge_count t) t.n_links
