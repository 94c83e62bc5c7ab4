module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

type stats = { iterations : int; visits : int; widenings : int }

module Make (D : DOMAIN) = struct
  type result = { in_ : D.t option array; out : D.t option array; stats : stats }

  let solve ?widen ?(widen_after = max_int) ~n ~entries ~preds ~transfer () =
    let in_ = Array.make n None in
    let out = Array.make n None in
    (* Successor lists, inverted from [preds]: a change to out(v) must
       reach exactly the nodes that read it. *)
    let succs = Array.make n [] in
    for v = n - 1 downto 0 do
      List.iter (fun p -> if p >= 0 && p < n then succs.(p) <- v :: succs.(p)) preds.(v)
    done;
    let refreshes = Array.make n 0 in
    let iterations = ref 0 and visits = ref 0 and widenings = ref 0 in
    (* Reverse postorder over [succs] from the entry nodes.  Processing
       a sweep in this order resolves every forward edge within the
       sweep, so a high-fan-in join point (e.g. the resume hub of a
       closed interprocedural graph) absorbs all of its predecessors'
       changes and is evaluated once per sweep, instead of once per
       arriving change as a FIFO worklist would. *)
    let order = Array.make n max_int in
    let visited = Array.make n false in
    let postctr = ref n in
    (* Explicit DFS stack: each node is pushed at most once, with the
       successors it has yet to explore. *)
    let stack_node = Array.make n 0 and stack_rest = Array.make n [] in
    let top = ref (-1) in
    let push_dfs v =
      visited.(v) <- true;
      incr top;
      stack_node.(!top) <- v;
      stack_rest.(!top) <- succs.(v)
    in
    let dfs_root r =
      if not visited.(r) then begin
        push_dfs r;
        while !top >= 0 do
          match stack_rest.(!top) with
          | [] ->
            decr postctr;
            order.(stack_node.(!top)) <- !postctr;
            decr top
          | s :: tl ->
            stack_rest.(!top) <- tl;
            if s >= 0 && s < n && not visited.(s) then push_dfs s
        done
      end
    in
    List.iter (fun (v, _) -> if v >= 0 && v < n then dfs_root v) entries;
    (* Sweep order: the visited nodes by [order] (a permutation onto
       [!postctr, n)), then the never-reached ones by index. *)
    let by_order = Array.make n 0 in
    let first = !postctr in
    let tail = ref (n - first) in
    Array.iteri
      (fun v o ->
        if o < max_int then by_order.(o - first) <- v
        else begin
          by_order.(!tail) <- v;
          incr tail
        end)
      order;
    let dirty = Array.make n false in
    (* Propagation-style chaotic iteration: a change to out(p) is
       joined directly into in(s) for each successor s, rather than
       re-folding *all* of s's predecessors on every refresh.  Join is
       monotone and idempotent and in(v) only ever grows, so the least
       fixpoint is the same, but a node with many predecessors (a join
       point, or the resume hub of a closed interprocedural graph) pays
       one join per changed edge instead of degree-many. *)
    let push v d =
      match in_.(v) with
      | None ->
        in_.(v) <- Some d;
        true
      | Some old ->
        let j = D.join old d in
        if D.equal old j then false
        else begin
          refreshes.(v) <- refreshes.(v) + 1;
          let j =
            if refreshes.(v) >= widen_after then begin
              match widen with
              | Some w ->
                incr widenings;
                w old j
              | None -> j
            end
            else j
          in
          (* A widening may return something equal to the old value (it
             has stabilised); stop propagating in that case too. *)
          if D.equal old j then false
          else begin
            in_.(v) <- Some j;
            true
          end
        end
    in
    (* Entry facts are joined into in(v) like any other edge; since
       in(v) never shrinks they are permanent lower bounds. *)
    List.iter
      (fun (v, d) -> if v >= 0 && v < n then if push v d then dirty.(v) <- true)
      entries;
    let pending = ref true in
    while !pending do
      pending := false;
      Array.iter
        (fun v ->
          if dirty.(v) then begin
            dirty.(v) <- false;
            incr iterations;
            match in_.(v) with
            | None -> ()
            | Some d ->
              incr visits;
              let o = transfer v d in
              let out_changed =
                match out.(v) with None -> true | Some old -> not (D.equal old o)
              in
              if out_changed then begin
                out.(v) <- Some o;
                List.iter (fun s -> if push s o then dirty.(s) <- true) succs.(v)
              end
          end)
        by_order;
      pending := Array.exists Fun.id dirty
    done;
    { in_; out; stats = { iterations = !iterations; visits = !visits; widenings = !widenings } }
end
