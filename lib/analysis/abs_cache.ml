module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Geometry = Ripple_cache.Geometry
module Json = Ripple_util.Json

module Bits = Gen_kill.Bits

(* ------------------------------------------------------------------ *)
(* The product abstract state, chunked by cache set: per member line
   of each set, one bit for must-any and may residency and one byte
   for the LRU age bound ([ways] encodes "no bound", i.e. possibly
   absent).  Lines in different sets never interact, so a block's
   transfer rewrites only the chunks of the sets its lines and hints
   map to and shares every other chunk by pointer; joins and equality
   checks short-circuit on pointer-equal chunks.  On data-center CFGs
   — tens of thousands of blocks over tens of thousands of lines, a
   handful of lines per block — this turns both from O(footprint) into
   O(sets), and is the difference between gigabytes and megabytes of
   stored per-node state. *)

type chunk = { any : int array; may : int array; age : Bytes.t }

let copy_chunk c =
  { any = Array.copy c.any; may = Array.copy c.may; age = Bytes.copy c.age }

let chunk_struct_equal a b =
  Bits.equal a.any b.any && Bits.equal a.may b.may && Bytes.equal a.age b.age

let chunk_equal a b = a == b || chunk_struct_equal a b

let chunk_join a b =
  if a == b then a
  else begin
    let any = Array.copy a.any in
    Bits.inter_into any b.any;
    let may = Array.copy a.may in
    Bits.union_into may b.may;
    let age = Bytes.copy a.age in
    for i = 0 to Bytes.length age - 1 do
      let y = Bytes.get_uint8 b.age i in
      if y > Bytes.get_uint8 age i then Bytes.set_uint8 age i y
    done;
    let c = { any; may; age } in
    (* Re-share with an argument whenever the result is not new:
       pointer-equal chunks keep later joins and equality checks
       constant-time. *)
    if chunk_struct_equal c a then a else if chunk_struct_equal c b then b else c
  end

module Dom = struct
  type t = chunk array (* indexed by cache set *)

  let equal a b =
    a == b
    ||
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go s = s >= n || (chunk_equal a.(s) b.(s) && go (s + 1)) in
    go 0

  let join a b =
    if a == b then a
    else begin
      let n = Array.length a in
      let c = Array.init n (fun s -> chunk_join a.(s) b.(s)) in
      let rec all_a s = s >= n || (c.(s) == a.(s) && all_a (s + 1)) in
      if all_a 0 then a else c
    end
end

module Solver = Fixpoint.Make (Dom)

type site_fact = {
  index : int;
  line : Addr.line;
  must_hit : bool;
  must_hit_lru : bool;
  always_miss : bool;
}

(* Memoized per-hint-line auxiliary passes (see [prove]):
   [fe] — on *every* closed path from this block, is the first same-set
          event an access to the line itself?  (least fixpoint, used
          for Proved_harmful)
   [d]  — which distinct same-set lines are touched on every path
          before the line is re-referenced?  (greatest fixpoint over
          per-set bit sets, used for Proved_pressure) *)
type pass = { fe : bool array; d : int array array; top : int array }

type t = {
  geometry : Geometry.t;
  blocks : Basic_block.t array;
  succs : int list array;  (* closed graph *)
  preds : int list array;
  reach : bool array;
  k : int;  (* tracked (reachable-footprint) line count *)
  id_of_line : (Addr.line, int) Hashtbl.t;
  line_of_id : int array;
  set_of_id : int array;
  set_members : int list array;  (* per cache set, ids ascending *)
  set_slot : int array;  (* id -> position within its set's members *)
  pers : bool array;  (* per cache set *)
  invalidated : (Addr.line, unit) Hashtbl.t;  (* lines hinted away somewhere reachable *)
  post : int array;  (* node ids, postorder over [succs] (successors first) *)
  facts : site_fact array array;
  hint_res : (bool * bool) array array;  (* (must-any, may) residency at each hint *)
  stats : Fixpoint.stats;
  reref : Gen_kill.t Lazy.t;
      (* may a hinted line be re-referenced from this node before
         another invalidation of it?  (Proved_dead; see [analyze]) *)
  passes : (Addr.line, pass) Hashtbl.t;
}

let analyze ~geometry ~entry blocks =
  let n = Array.length blocks in
  let ways = geometry.Geometry.ways in
  if ways < 1 || ways > 254 then
    invalid_arg "Abs_cache.analyze: associativity out of range";
  let nsets = Geometry.sets geometry in
  (* The return closure is factored through a virtual resume hub (node
     [n], no code, identity transfer): every [Return] feeds the hub and
     the hub feeds every resume site.  Joins are associative and
     idempotent, so every fixpoint over the factored graph equals the
     one over the direct closure, while the edge count drops from
     |returns| x |sites| to |returns| + |sites| — the difference between
     minutes and milliseconds on data-center-sized CFGs, where both
     factors run into the hundreds. *)
  let nn = n + 1 in
  let hub = n in
  let return_tos =
    Array.fold_left
      (fun acc (b : Basic_block.t) ->
        match b.Basic_block.term with
        | Basic_block.Call { return_to; _ } | Basic_block.Indirect_call { return_to; _ }
          ->
          return_to :: acc
        | _ -> acc)
      [] blocks
  in
  let resume =
    List.filter (fun s -> s >= 0 && s < n) (List.sort_uniq compare (entry :: return_tos))
  in
  let succs = Array.make nn [] in
  succs.(hub) <- resume;
  Array.iteri
    (fun v (b : Basic_block.t) ->
      let extra =
        match b.Basic_block.term with
        | Basic_block.Return -> [ hub ]
        | Basic_block.Halt -> [ entry ]
        | _ -> []
      in
      succs.(v) <-
        List.filter
          (fun s -> s >= 0 && s < nn)
          (List.sort_uniq compare (Cfg.flow_successors b @ extra)))
    blocks;
  let preds = Array.make nn [] in
  for v = nn - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- v :: preds.(s)) succs.(v)
  done;
  let reach = Array.make nn false in
  if entry >= 0 && entry < n then begin
    let q = Queue.create () in
    reach.(entry) <- true;
    Queue.add entry q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun s ->
          if not reach.(s) then begin
            reach.(s) <- true;
            Queue.add s q
          end)
        succs.(v)
    done
  end;
  (* Postorder over [succs] (successors before predecessors), used by
     the backward per-hint passes to sweep in dependency order. *)
  let post = Array.make nn 0 in
  let postn = ref 0 in
  let pushed = Array.make nn false in
  (if entry >= 0 && entry < n then begin
     let stack = Stack.create () in
     pushed.(entry) <- true;
     Stack.push (entry, succs.(entry)) stack;
     while not (Stack.is_empty stack) do
       let v, rest = Stack.pop stack in
       match rest with
       | [] ->
         post.(!postn) <- v;
         incr postn
       | s :: tl ->
         Stack.push (v, tl) stack;
         if not pushed.(s) then begin
           pushed.(s) <- true;
           Stack.push (s, succs.(s)) stack
         end
     done
   end);
  for v = 0 to nn - 1 do
    if not pushed.(v) then begin
      post.(!postn) <- v;
      incr postn
    end
  done;
  (* Tracked lines: the reachable footprint, ids in first-seen order. *)
  let id_of_line = Hashtbl.create 256 in
  let rev_lines = ref [] in
  let k = ref 0 in
  Array.iteri
    (fun v b ->
      if reach.(v) then
        List.iter
          (fun l ->
            if not (Hashtbl.mem id_of_line l) then begin
              Hashtbl.add id_of_line l !k;
              rev_lines := l :: !rev_lines;
              incr k
            end)
          (Basic_block.lines b))
    blocks;
  let k = !k in
  let line_of_id = Array.of_list (List.rev !rev_lines) in
  let set_of_id = Array.map (fun l -> Geometry.set_of_line geometry l) line_of_id in
  let set_members = Array.make nsets [] in
  for i = k - 1 downto 0 do
    set_members.(set_of_id.(i)) <- i :: set_members.(set_of_id.(i))
  done;
  let set_slot = Array.make (max 1 k) 0 in
  Array.iter (fun ms -> List.iteri (fun slot i -> set_slot.(i) <- slot) ms) set_members;
  let pers = Array.map (fun ms -> List.length ms <= ways) set_members in
  let invalidated = Hashtbl.create 64 in
  Array.iteri
    (fun v (b : Basic_block.t) ->
      if reach.(v) then
        Array.iter
          (function
            | Basic_block.Invalidate l -> Hashtbl.replace invalidated l ()
            | Basic_block.Demote _ -> ())
          b.Basic_block.hints)
    blocks;
  let block_line_ids =
    Array.mapi
      (fun v b ->
        if reach.(v) then
          Array.of_list
            (List.map (fun l -> Hashtbl.find id_of_line l) (Basic_block.lines b))
        else [||])
      blocks
  in
  (* Transfer: the block's line accesses in execution order, then its
     hints in order — matching the simulator's per-block sequence.
     [base] holds the incoming chunk pointers: a chunk is copied on
     first write only, so untouched sets stay shared. *)
  let set_size = Array.map List.length set_members in
  let own ~base st s = if st.(s) == base.(s) then st.(s) <- copy_chunk st.(s) in
  let touch ~base st i =
    let s = set_of_id.(i) in
    own ~base st s;
    let ch = st.(s) in
    let sl = set_slot.(i) in
    if not (Bits.get ch.any sl) then
      if pers.(s) then Bits.set ch.any sl
      else begin
        (* A potential miss in a non-persistent set may evict anything
           there, whichever policy picks the victim. *)
        Array.fill ch.any 0 (Array.length ch.any) 0;
        Bits.set ch.any sl
      end;
    let a = Bytes.get_uint8 ch.age sl in
    for j = 0 to set_size.(s) - 1 do
      if j <> sl then begin
        let aj = Bytes.get_uint8 ch.age j in
        if aj < a then Bytes.set_uint8 ch.age j (aj + 1)
      end
    done;
    Bytes.set_uint8 ch.age sl 0;
    Bits.set ch.may sl
  in
  let apply_hint ~base st = function
    | Basic_block.Invalidate l -> (
      match Hashtbl.find_opt id_of_line l with
      | None -> ()
      | Some i ->
        let s = set_of_id.(i) in
        own ~base st s;
        let ch = st.(s) in
        let sl = set_slot.(i) in
        Bits.clear ch.any sl;
        Bits.clear ch.may sl;
        Bytes.set_uint8 ch.age sl ways)
    | Basic_block.Demote l -> (
      match Hashtbl.find_opt id_of_line l with
      | None -> ()
      | Some i ->
        let s = set_of_id.(i) in
        own ~base st s;
        let ch = st.(s) in
        let sl = set_slot.(i) in
        (* Residency is untouched (a demote never evicts; in a
           persistent set the victim is never consulted), but under LRU
           the line now sits at the eviction-first position. *)
        if Bytes.get_uint8 ch.age sl < ways then Bytes.set_uint8 ch.age sl (ways - 1))
  in
  let transfer v st =
    if
      v = hub
      || Array.length block_line_ids.(v) = 0
         && Array.length blocks.(v).Basic_block.hints = 0
    then st
    else begin
      let base = st in
      let st = Array.copy st in
      Array.iter (fun i -> touch ~base st i) block_line_ids.(v);
      Array.iter (fun h -> apply_hint ~base st h) blocks.(v).Basic_block.hints;
      st
    end
  in
  let empty_chunk m =
    {
      any = Bits.create m;
      may = Bits.create m;
      age = Bytes.make m (Char.chr ways);
    }
  in
  let empty = Array.init nsets (fun s -> empty_chunk set_size.(s)) in
  let empty_state () = Array.copy empty in
  let entries = if entry >= 0 && entry < n then [ (entry, empty_state ()) ] else [] in
  (* Ages converge by +1 creep around loops — up to [ways] global
     waves through the closed graph, each costing a full propagation.
     After a node's state has changed [widen_after] times, any age
     still climbing jumps straight to "no bound".  That forfeits
     must-hit-LRU precision only at deeply iterated join points and
     never touches must/may residency; small CFGs never reach the
     threshold and keep exact ages. *)
  let widen old fresh =
    if old == fresh then fresh
    else
      Array.mapi
        (fun s f ->
          let o = old.(s) in
          if o == f then f
          else begin
            let age = ref None in
            for i = 0 to Bytes.length f.age - 1 do
              let fi = Bytes.get_uint8 f.age i in
              if fi < ways && fi > Bytes.get_uint8 o.age i then begin
                let a =
                  match !age with
                  | Some a -> a
                  | None ->
                    let a = Bytes.copy f.age in
                    age := Some a;
                    a
                in
                Bytes.set_uint8 a i ways
              end
            done;
            match !age with None -> f | Some a -> { any = f.any; may = f.may; age = a }
          end)
        fresh
  in
  let res = Solver.solve ~widen ~widen_after:8 ~n:nn ~entries ~preds ~transfer () in
  let facts = Array.make n [||] in
  let hint_res = Array.make n [||] in
  Array.iteri
    (fun v (b : Basic_block.t) ->
      match res.Solver.in_.(v) with
      | None -> ()
      | Some st0 ->
        let base = st0 in
        let st = Array.copy st0 in
        let ids = block_line_ids.(v) in
        let fs =
          Array.make (Array.length ids)
            { index = 0; line = 0; must_hit = false; must_hit_lru = false; always_miss = false }
        in
        for index = 0 to Array.length ids - 1 do
          let i = ids.(index) in
          let ch = st.(set_of_id.(i)) in
          let sl = set_slot.(i) in
          let resident_any = Bits.get ch.any sl in
          fs.(index) <-
            {
              index;
              line = line_of_id.(i);
              must_hit = resident_any;
              must_hit_lru = resident_any || Bytes.get_uint8 ch.age sl < ways;
              always_miss = not (Bits.get ch.may sl);
            };
          touch ~base st i
        done;
        facts.(v) <- fs;
        let hs = b.Basic_block.hints in
        let hr = Array.make (Array.length hs) (false, false) in
        for j = 0 to Array.length hs - 1 do
          (match Hashtbl.find_opt id_of_line (Basic_block.hint_line hs.(j)) with
          | None -> ()
          | Some i ->
            let ch = st.(set_of_id.(i)) in
            let sl = set_slot.(i) in
            hr.(j) <- (Bits.get ch.any sl, Bits.get ch.may sl));
          apply_hint ~base st hs.(j)
        done;
        hint_res.(v) <- hr)
    blocks;
  (* Re-reference reachability, one backward gen/kill problem over the
     hub-extended closed graph for every hinted line: a reference
     generates, only an [Invalidate] kills, and a block that both
     references and invalidates still reaches (lines execute before
     hints).  Demoted lines are tracked too, since [prove] asks about
     them.  Forced by the first proof that needs it. *)
  let reref =
    lazy
      (Gen_kill.solve
         ~tracked:
           (Array.fold_left
              (fun acc (b : Basic_block.t) ->
                Array.fold_left (fun acc h -> Basic_block.hint_line h :: acc) acc
                  b.Basic_block.hints)
              [] blocks)
         ~preds:succs
         ~boundary:(fun _ -> false)
         ~gen:(fun v -> if v < n then Basic_block.lines blocks.(v) else [])
         ~kill:(fun v ->
           if v < n then
             List.filter_map
               (function Basic_block.Invalidate l -> Some l | Basic_block.Demote _ -> None)
               (Array.to_list blocks.(v).Basic_block.hints)
           else []))
  in
  {
    geometry;
    blocks;
    succs;
    preds;
    reach;
    k;
    id_of_line;
    line_of_id;
    set_of_id;
    set_members;
    set_slot;
    pers;
    invalidated;
    post;
    facts;
    hint_res;
    stats = res.Solver.stats;
    reref;
    passes = Hashtbl.create 16;
  }

let facts t = t.facts

(* [t.reach] covers the resume hub too; callers index by block id. *)
let reachable t = Array.sub t.reach 0 (Array.length t.blocks)

let persistent t ~set =
  set >= 0 && set < Array.length t.pers && t.pers.(set)

let first_miss_only t line =
  match Hashtbl.find_opt t.id_of_line line with
  | None -> false
  | Some i -> t.pers.(t.set_of_id.(i)) && not (Hashtbl.mem t.invalidated line)

let solver_stats t = t.stats

(* ------------------------------------------------------------------ *)
(* Hint proofs. *)

type verdict =
  | Proved_noop
  | Proved_dead
  | Proved_persistent
  | Proved_pressure
  | Proved_harmful
  | Unproved

let verdict_name = function
  | Proved_noop -> "proved_noop"
  | Proved_dead -> "proved_dead"
  | Proved_persistent -> "proved_persistent"
  | Proved_pressure -> "proved_pressure"
  | Proved_harmful -> "proved_harmful"
  | Unproved -> "unproved"

let proved_safe = function
  | Proved_dead | Proved_persistent | Proved_pressure -> true
  | Proved_noop | Proved_harmful | Unproved -> false

let compute_pass t l =
  (* Passes run over the hub-extended graph ([nn] nodes, see
     {!analyze}): the hub has no lines and no hints, so it is
     transparent to both fixpoints and the results at real blocks
     match the directly-closed graph. *)
  let nb = Array.length t.blocks in
  let nn = Array.length t.succs in
  let sl = Geometry.set_of_line t.geometry l in
  let refs = Array.make nn false in
  let invs = Array.make nn false in
  for v = 0 to nb - 1 do
    refs.(v) <- List.exists (fun x -> x = l) (Basic_block.lines t.blocks.(v));
    invs.(v) <-
      Array.exists
        (function Basic_block.Invalidate x -> x = l | Basic_block.Demote _ -> false)
        t.blocks.(v).Basic_block.hints
  done;
  (* [fe]: least fixpoint of "the first same-set event on every path
     from here is an access to [l] itself".  Per block the event is
     decided by its line scan — an access to [l] settles true, a
     possibly-missing same-set access settles false (it could evict or
     consult the policy), a must-hit same-set access is a guaranteed
     non-event in both the hinted and the unhinted world.  A
     re-invalidation of [l] settles false: the miss would happen
     anyway. *)
  (* The event is computed lazily and memoized: fe propagation only
     ever looks at the neighbourhood of blocks referencing [l], a tiny
     fraction of a data-center CFG. *)
  let event_memo = Array.make nn (-2) in
  let event v =
    if event_memo.(v) <> -2 then event_memo.(v)
    else begin
      let ev =
        if not t.reach.(v) then -1
        else if v >= nb then 0
        else begin
          let ev = ref 0 in
          (try
             Array.iter
               (fun (f : site_fact) ->
                 if f.line = l then begin
                   ev := 1;
                   raise Exit
                 end
                 else if
                   Geometry.set_of_line t.geometry f.line = sl && not f.must_hit
                 then begin
                   ev := -1;
                   raise Exit
                 end)
               t.facts.(v)
           with Exit -> ());
          if !ev = 0 && invs.(v) then ev := -1;
          !ev
        end
      in
      event_memo.(v) <- ev;
      ev
    end
  in
  let fe = Array.make nn false in
  let q = Queue.create () in
  for v = 0 to nb - 1 do
    if t.reach.(v) && refs.(v) && event v = 1 then begin
      fe.(v) <- true;
      Queue.add v q
    end
  done;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun p ->
        if
          t.reach.(p) && (not fe.(p)) && event p = 0
          && t.succs.(p) <> []
          && List.for_all (fun s -> fe.(s)) t.succs.(p)
        then begin
          fe.(p) <- true;
          Queue.add p q
        end)
      t.preds.(v)
  done;
  (* [d]: greatest fixpoint of the guaranteed-distinct-conflict set —
     same-set lines touched on *every* path before [l] is
     re-referenced.  Top (= every other line in the set) means "no path
     re-references [l] without them", which also covers paths that
     never re-reference [l] at all or re-invalidate it first. *)
  let members = t.set_members.(sl) in
  let m = List.length members in
  let top = Bits.create m in
  let nw = Array.length top in
  List.iter
    (fun i -> if t.line_of_id.(i) <> l then Bits.set top t.set_slot.(i))
    members;
  (* Block scans are lazy and memoized, and the untouched-set scan
     shares one zero vector: most blocks never touch [l]'s set, and in
     a localized sweep most are never even evaluated. *)
  let zero = Bits.create m in
  let scan_done = Array.make nn false in
  let scan_closed = Array.make nn false in
  let scan_acc = Array.make nn zero in
  let scan v =
    if not scan_done.(v) then begin
      scan_done.(v) <- true;
      if v < nb && t.reach.(v) then begin
        let acc = ref zero in
        (try
           List.iter
             (fun line ->
               if line = l then begin
                 scan_closed.(v) <- true;
                 raise Exit
               end
               else if Geometry.set_of_line t.geometry line = sl then
                 match Hashtbl.find_opt t.id_of_line line with
                 | Some i ->
                   if !acc == zero then acc := Bits.create m;
                   Bits.set !acc t.set_slot.(i)
                 | None -> ())
             (Basic_block.lines t.blocks.(v))
         with Exit -> ());
        scan_acc.(v) <- !acc
      end
    end
  in
  (* Entries only ever *replace* [d.(v)] with freshly allocated arrays,
     so sharing [top] as the initial value is safe. *)
  let d = Array.make nn top in
  let scratch = Bits.create m in
  let eval_changed v =
    scan v;
    if scan_closed.(v) then Array.blit scan_acc.(v) 0 scratch 0 nw
    else if invs.(v) then Array.blit top 0 scratch 0 nw
    else begin
      Array.blit top 0 scratch 0 nw;
      List.iter (fun s -> Bits.inter_into scratch d.(s)) t.succs.(v);
      Bits.union_into scratch scan_acc.(v)
    end;
    not (Bits.equal scratch d.(v))
  in
  (* Greatest fixpoint from top, swept in postorder (successors before
     predecessors) so forward dependencies resolve within a sweep.
     From an all-top start the only nodes whose transfer can differ
     are the ones referencing [l] itself, so the sweep stays localized
     to their backward slice. *)
  let dirty = Array.make nn false in
  for v = 0 to nb - 1 do
    if t.reach.(v) && refs.(v) then dirty.(v) <- true
  done;
  let pending = ref true in
  while !pending do
    pending := false;
    Array.iter
      (fun v ->
        if dirty.(v) then begin
          dirty.(v) <- false;
          if eval_changed v then begin
            d.(v) <- Array.copy scratch;
            List.iter (fun p -> if t.reach.(p) then dirty.(p) <- true) t.preds.(v)
          end
        end)
      t.post;
    pending := Array.exists Fun.id dirty
  done;
  { fe; d; top }

let get_pass t l =
  match Hashtbl.find_opt t.passes l with
  | Some p -> p
  | None ->
    let p = compute_pass t l in
    Hashtbl.add t.passes l p;
    p

let prove t ~block ~index =
  let n = Array.length t.blocks in
  if block < 0 || block >= n then invalid_arg "Abs_cache.prove: block out of range";
  let hints = t.blocks.(block).Basic_block.hints in
  if index < 0 || index >= Array.length hints then
    invalid_arg "Abs_cache.prove: hint index out of range";
  let h = hints.(index) in
  let l = Basic_block.hint_line h in
  let demote =
    match h with Basic_block.Demote _ -> true | Basic_block.Invalidate _ -> false
  in
  if not t.reach.(block) then Proved_noop
  else begin
    let resident_any, resident_may = t.hint_res.(block).(index) in
    let later_inv = ref false in
    for j = index + 1 to Array.length hints - 1 do
      match hints.(j) with
      | Basic_block.Invalidate x when x = l -> later_inv := true
      | _ -> ()
    done;
    let later_inv = !later_inv in
    let succs = t.succs.(block) in
    let ways = t.geometry.Geometry.ways in
    if not resident_may then Proved_noop
    else if
      later_inv
      || List.for_all
           (fun s -> not (t.reach.(s) && Gen_kill.mem_out (Lazy.force t.reref) ~node:s l))
           succs
    then Proved_dead
    else if
      demote
      &&
      match Hashtbl.find_opt t.id_of_line l with
      | Some i -> t.pers.(t.set_of_id.(i))
      | None -> false
    then Proved_persistent
    else begin
      let p = get_pass t l in
      let inter = Array.copy p.top in
      List.iter (fun s -> Bits.inter_into inter p.d.(s)) succs;
      if Bits.count inter >= ways then Proved_pressure
      else if
        (not demote) && resident_any && succs <> []
        && List.for_all (fun s -> p.fe.(s)) succs
      then Proved_harmful
      else Unproved
    end
  end

(* ------------------------------------------------------------------ *)
(* Static bounds. *)

type bounds = {
  instructions : int;
  lower_misses : int;
  upper_misses : int;
  mpki_lower : float;
  mpki_upper : float;
}

let bounds t ~exec_counts =
  let n = Array.length t.blocks in
  if Array.length exec_counts <> n then None
  else begin
    let instructions = ref 0 in
    for v = 0 to n - 1 do
      instructions := !instructions + (exec_counts.(v) * t.blocks.(v).Basic_block.n_instrs)
    done;
    if !instructions <= 0 then None
    else begin
      let site_sum = Array.make (max 1 t.k) 0 in
      let executed = Array.make (max 1 t.k) false in
      let always = ref 0 in
      Array.iteri
        (fun v fs ->
          let c = exec_counts.(v) in
          Array.iter
            (fun (f : site_fact) ->
              match Hashtbl.find_opt t.id_of_line f.line with
              | None -> ()
              | Some i ->
                if c > 0 then executed.(i) <- true;
                if not f.must_hit then site_sum.(i) <- site_sum.(i) + c;
                if f.always_miss then always := !always + c)
            fs)
        t.facts;
      let upper = ref 0 in
      let cold = ref 0 in
      for i = 0 to t.k - 1 do
        if executed.(i) then incr cold;
        if first_miss_only t t.line_of_id.(i) then
          upper := !upper + min site_sum.(i) 1
        else upper := !upper + site_sum.(i)
      done;
      let lower_misses = max !always !cold in
      let per_ki x = 1000.0 *. Float.of_int x /. Float.of_int !instructions in
      Some
        {
          instructions = !instructions;
          lower_misses;
          upper_misses = !upper;
          mpki_lower = per_ki lower_misses;
          mpki_upper = per_ki !upper;
        }
    end
  end

type min_geometry = {
  coverage : float;
  dominant_blocks : int;
  dominant_lines : int;
  min_ways : int;
  min_size_bytes : int;
}

let min_geometry t ~exec_counts =
  let n = Array.length t.blocks in
  if Array.length exec_counts <> n then None
  else begin
    let weighted = ref [] in
    let total = ref 0 in
    for v = 0 to n - 1 do
      if t.reach.(v) then begin
        let w = exec_counts.(v) * t.blocks.(v).Basic_block.n_instrs in
        total := !total + w;
        if w > 0 then weighted := (v, w) :: !weighted
      end
    done;
    let total = !total in
    if total <= 0 then None
    else begin
      let order =
        List.sort
          (fun (v1, w1) (v2, w2) -> if w1 <> w2 then compare w2 w1 else compare v1 v2)
          !weighted
      in
      let chosen = ref [] in
      let cum = ref 0 in
      List.iter
        (fun (v, w) ->
          if !cum * 10 < total * 9 then begin
            cum := !cum + w;
            chosen := v :: !chosen
          end)
        order;
      let lines = Hashtbl.create 256 in
      List.iter
        (fun v ->
          List.iter (fun l -> Hashtbl.replace lines l ()) (Basic_block.lines t.blocks.(v)))
        !chosen;
      if Hashtbl.length lines = 0 then None
      else begin
        let nsets = Geometry.sets t.geometry in
        let per_set = Array.make nsets 0 in
        Hashtbl.iter
          (fun l () ->
            let s = Geometry.set_of_line t.geometry l in
            per_set.(s) <- per_set.(s) + 1)
          lines;
        let min_ways = Array.fold_left max 1 per_set in
        Some
          {
            coverage = Float.of_int !cum /. Float.of_int total;
            dominant_blocks = List.length !chosen;
            dominant_lines = Hashtbl.length lines;
            min_ways;
            min_size_bytes = nsets * min_ways * Addr.line_size;
          }
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Summary. *)

type summary = {
  blocks : int;
  sites : int;
  must_hit_sites : int;
  must_hit_lru_sites : int;
  always_miss_sites : int;
  persistent_sets : int;
  first_miss_lines : int;
  solver : Fixpoint.stats;
  bounds : bounds option;
  min_geometry : min_geometry option;
}

let summarize ?exec_counts t =
  let sites = ref 0 and mh = ref 0 and mhl = ref 0 and am = ref 0 in
  Array.iter
    (Array.iter (fun (f : site_fact) ->
         incr sites;
         if f.must_hit then incr mh;
         if f.must_hit_lru then incr mhl;
         if f.always_miss then incr am))
    t.facts;
  let blocks = ref 0 in
  for v = 0 to Array.length t.blocks - 1 do
    if t.reach.(v) then incr blocks
  done;
  let blocks = !blocks in
  let persistent_sets = ref 0 in
  Array.iteri
    (fun s ms -> if ms <> [] && t.pers.(s) then incr persistent_sets)
    t.set_members;
  let fml = ref 0 in
  for i = 0 to t.k - 1 do
    if first_miss_only t t.line_of_id.(i) then incr fml
  done;
  let bounds =
    match exec_counts with None -> None | Some ec -> bounds t ~exec_counts:ec
  in
  let min_geometry =
    match exec_counts with None -> None | Some ec -> min_geometry t ~exec_counts:ec
  in
  {
    blocks;
    sites = !sites;
    must_hit_sites = !mh;
    must_hit_lru_sites = !mhl;
    always_miss_sites = !am;
    persistent_sets = !persistent_sets;
    first_miss_lines = !fml;
    solver = t.stats;
    bounds;
    min_geometry;
  }

let bounds_to_json = function
  | None -> Json.Null
  | Some b ->
    Json.Obj
      [
        ("instructions", Json.Int b.instructions);
        ("lower_misses", Json.Int b.lower_misses);
        ("upper_misses", Json.Int b.upper_misses);
        ("mpki_lower", Json.Float b.mpki_lower);
        ("mpki_upper", Json.Float b.mpki_upper);
      ]

let min_geometry_to_json = function
  | None -> Json.Null
  | Some g ->
    Json.Obj
      [
        ("coverage", Json.Float g.coverage);
        ("dominant_blocks", Json.Int g.dominant_blocks);
        ("dominant_lines", Json.Int g.dominant_lines);
        ("min_ways", Json.Int g.min_ways);
        ("min_size_bytes", Json.Int g.min_size_bytes);
      ]

let summary_to_json s =
  Json.Obj
    [
      ("blocks", Json.Int s.blocks);
      ("sites", Json.Int s.sites);
      ("must_hit_sites", Json.Int s.must_hit_sites);
      ("must_hit_lru_sites", Json.Int s.must_hit_lru_sites);
      ("always_miss_sites", Json.Int s.always_miss_sites);
      ("persistent_sets", Json.Int s.persistent_sets);
      ("first_miss_lines", Json.Int s.first_miss_lines);
      ( "solver",
        Json.Obj
          [
            ("iterations", Json.Int s.solver.Fixpoint.iterations);
            ("visits", Json.Int s.solver.Fixpoint.visits);
            ("widenings", Json.Int s.solver.Fixpoint.widenings);
          ] );
      ("bounds", bounds_to_json s.bounds);
      ("min_geometry", min_geometry_to_json s.min_geometry);
    ]
