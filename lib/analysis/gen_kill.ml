module Addr = Ripple_isa.Addr

(* The hot loops copy whole sets per transfer, so the representation is
   chosen for cheap copy and word-parallel join. *)
module Bits = struct
  type t = int array

  let bpw = Sys.int_size
  let create k = Array.make (max 1 ((k + bpw - 1) / bpw)) 0
  let get s i = s.(i / bpw) land (1 lsl (i mod bpw)) <> 0

  let set s i =
    let w = i / bpw in
    s.(w) <- s.(w) lor (1 lsl (i mod bpw))

  let clear s i =
    let w = i / bpw in
    s.(w) <- s.(w) land lnot (1 lsl (i mod bpw))

  let inter_into dst src =
    for w = 0 to Array.length dst - 1 do
      dst.(w) <- dst.(w) land src.(w)
    done

  let union_into dst src =
    for w = 0 to Array.length dst - 1 do
      dst.(w) <- dst.(w) lor src.(w)
    done

  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
    go x 0

  let count s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

  let equal a b =
    a == b
    ||
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0
end

(* Sets handed to the solver are never mutated, so join and transfer
   return an argument whenever the result is not new: most nodes touch
   no tracked line and pass their input through by pointer. *)
module Dom = struct
  type t = Bits.t

  let equal = Bits.equal

  let subset a b =
    let rec go w = w < 0 || (a.(w) land lnot b.(w) = 0 && go (w - 1)) in
    go (Array.length a - 1)

  let join a b =
    if subset b a then a
    else if subset a b then b
    else begin
      let c = Array.copy a in
      Bits.union_into c b;
      c
    end
end

module Solver = Fixpoint.Make (Dom)

type t = { index : (Addr.line, int) Hashtbl.t; result : Solver.result }

let solve ~tracked ~preds ~boundary ~gen ~kill =
  let index = Hashtbl.create 64 in
  List.iter
    (fun l -> if not (Hashtbl.mem index l) then Hashtbl.add index l (Hashtbl.length index))
    tracked;
  let k = Hashtbl.length index in
  let empty = Bits.create k in
  let full = Bits.create k in
  for i = 0 to k - 1 do
    Bits.set full i
  done;
  (* A node with no tracked line in its gen (kill) set shares [empty]. *)
  let bits_of lines =
    List.fold_left
      (fun acc l ->
        match Hashtbl.find_opt index l with
        | None -> acc
        | Some i ->
          let acc = if acc == empty then Bits.create k else acc in
          Bits.set acc i;
          acc)
      empty lines
  in
  let n = Array.length preds in
  let gen = Array.init n (fun v -> bits_of (gen v)) in
  let kill = Array.init n (fun v -> bits_of (kill v)) in
  let transfer v d =
    let g = gen.(v) and x = kill.(v) in
    if g == empty && x == empty then d
    else begin
      let o = Array.mapi (fun w dw -> g.(w) lor (dw land lnot x.(w))) d in
      if Bits.equal o d then d else o
    end
  in
  (* Only boundary and generating nodes need to be entries: a node no
     entry reaches has only such predecessors, so its sets are empty —
     which is what [None] reads as.  Facts still flow around cycles no
     boundary node reaches, from the generating nodes on them, and the
     solve visits only the nodes the facts can reach. *)
  let entries = ref [] in
  for v = n - 1 downto 0 do
    if boundary v then entries := (v, full) :: !entries
    else if gen.(v) != empty then entries := (v, empty) :: !entries
  done;
  { index; result = Solver.solve ~n ~entries:!entries ~preds ~transfer () }

let mem sets t ~node line =
  match Hashtbl.find_opt t.index line with
  | None -> false
  | Some i -> (
    node >= 0 && node < Array.length sets
    && match sets.(node) with Some s -> Bits.get s i | None -> false)

let mem_in t = mem t.result.Solver.in_ t
let mem_out t = mem t.result.Solver.out t
