module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Geometry = Ripple_cache.Geometry

type site = { block : int; index : int; line : Addr.line; demote : bool }

type classification =
  | Safe_dead
  | Safe_pressure
  | Harmful of { reuse_block : int; conflicts : int }
  | Redundant of { earlier : int }

let classification_name = function
  | Safe_dead -> "safe_dead"
  | Safe_pressure -> "safe_pressure"
  | Harmful _ -> "harmful"
  | Redundant _ -> "redundant"

let sites_of blocks =
  let acc = ref [] in
  Array.iter
    (fun (b : Basic_block.t) ->
      Array.iteri
        (fun index h ->
          let demote = match h with Basic_block.Demote _ -> true | _ -> false in
          acc :=
            { block = b.Basic_block.id; index; line = Basic_block.hint_line h; demote }
            :: !acc)
        b.Basic_block.hints)
    blocks;
  List.rev !acc

let block_hints_line (b : Basic_block.t) line =
  Array.exists (fun h -> Basic_block.hint_line h = line) b.Basic_block.hints

let hint_lines (b : Basic_block.t) =
  Array.to_list (Array.map Basic_block.hint_line b.Basic_block.hints)

type liveness = Gen_kill.t

(* Backward: the flow-successor lists stand in for predecessors, so the
   engine's [in] is live-out and its [out] live-in. *)
let hit_liveness blocks ~tracked =
  Gen_kill.solve ~tracked
    ~preds:(Array.map Cfg.flow_successors blocks)
    ~boundary:(fun _ -> false)
    ~gen:(fun b -> Basic_block.lines blocks.(b))
    ~kill:(fun b -> hint_lines blocks.(b))

let live_in t ~block ~line = Gen_kill.mem_out t ~node:block line
let live_out t ~block ~line = Gen_kill.mem_in t ~node:block line

(* "Must-invalidated" (the line has been hinted away and not referenced
   since, on ALL incoming paths) through its dual, the forward
   may-problem "possibly not invalidated": every line is where no path
   leads in, a reference not hinted away in the same block revives the
   line, a hint kills it.  inv_in(b, l) is the complement of the
   result's [in]. *)
let not_invalidated blocks ~tracked =
  let preds = Cfg.predecessors blocks in
  Gen_kill.solve ~tracked ~preds
    ~boundary:(fun b -> preds.(b) = [])
    ~gen:(fun b ->
      List.filter
        (fun l -> not (block_hints_line blocks.(b) l))
        (Basic_block.lines blocks.(b)))
    ~kill:(fun b -> hint_lines blocks.(b))

(* Bounded forward search from the hint: can the victim line be
   re-referenced while fewer than [ways] distinct same-set lines have
   been touched?  States are explored in order of accumulated conflict
   count (bucket queue); a block is re-expanded only with a strictly
   smaller count, so the walk is O(blocks * ways).  Paths saturate (and
   are pruned) at [ways] conflicts — the victim's ideal eviction point —
   or when they cross another hint on the same line. *)
let find_harmful ~geometry ~blocks ~start ~line =
  let ways = geometry.Geometry.ways in
  let n = Array.length blocks in
  let set = Geometry.set_of_line geometry line in
  let best = Array.make n max_int in
  let buckets = Array.make (max 1 ways) [] in
  let push block acc c =
    if block >= 0 && block < n && c < ways && c < best.(block) then begin
      best.(block) <- c;
      buckets.(c) <- (block, acc) :: buckets.(c)
    end
  in
  List.iter (fun s -> push s [] 0) (Cfg.flow_successors blocks.(start));
  let result = ref None in
  let c = ref 0 in
  while !result = None && !c < ways do
    match buckets.(!c) with
    | [] -> incr c
    | (block, acc) :: rest ->
      buckets.(!c) <- rest;
      if best.(block) >= !c then begin
        (* Scan the block's lines in execution order, growing the
           conflict set as same-set lines appear before the victim. *)
        let acc = ref acc and count = ref !c and live = ref true in
        List.iter
          (fun l ->
            if !live && !result = None then begin
              if l = line then result := Some (block, !count)
              else if
                !count < ways
                && Geometry.set_of_line geometry l = set
                && not (List.mem l !acc)
              then begin
                acc := l :: !acc;
                incr count;
                if !count >= ways then live := false
              end
            end)
          (Basic_block.lines blocks.(block));
        if !result = None && !live && not (block_hints_line blocks.(block) line) then
          List.iter (fun s -> push s !acc !count) (Cfg.flow_successors blocks.(block))
      end
  done;
  !result

let classify ~geometry ~entry blocks =
  let sites = sites_of blocks in
  let tracked = List.map (fun s -> s.line) sites in
  let liveness = hit_liveness blocks ~tracked in
  let nv = not_invalidated blocks ~tracked in
  let dominance = Dominance.of_blocks ~entry blocks in
  (* Hinting blocks per line, in site order. *)
  let hint_blocks = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add hint_blocks s.line s.block) (List.rev sites);
  List.map
    (fun s ->
      let duplicate =
        (* An earlier hint on the same line in the same block: the later
           one always finds the line gone. *)
        let h = blocks.(s.block).Basic_block.hints in
        let dup = ref false in
        for i = 0 to s.index - 1 do
          if Basic_block.hint_line h.(i) = s.line then dup := true
        done;
        !dup
      in
      let reachability () =
        match find_harmful ~geometry ~blocks ~start:s.block ~line:s.line with
        | Some (reuse_block, conflicts) -> Harmful { reuse_block; conflicts }
        | None ->
          if live_out liveness ~block:s.block ~line:s.line then Safe_pressure else Safe_dead
      in
      let classification =
        if duplicate then Redundant { earlier = s.block }
        else if
          (not (Gen_kill.mem_in nv ~node:s.block s.line))
          && not (List.mem s.line (Basic_block.lines blocks.(s.block)))
        then begin
          (* Already hint-dead on every path in; cite a dominating hint. *)
          match
            List.find_opt
              (fun d -> d <> s.block && Dominance.dominates dominance ~dom:d s.block)
              (Hashtbl.find_all hint_blocks s.line)
          with
          | Some earlier -> Redundant { earlier }
          | None ->
            (* All-paths-invalidated but no single dominating witness
               (e.g. both arms of a diamond hint the line): still safe,
               fall through to the reachability reasons. *)
            reachability ()
        end
        else reachability ()
      in
      (s, classification))
    sites

let classify_proved ~geometry ~entry blocks =
  let classified = classify ~geometry ~entry blocks in
  let abs = Abs_cache.analyze ~geometry ~entry blocks in
  List.map
    (fun (s, c) -> (s, c, Abs_cache.prove abs ~block:s.block ~index:s.index))
    classified

let disagreement c (v : Abs_cache.verdict) =
  match (c, v) with
  | Harmful _, (Abs_cache.Proved_dead | Abs_cache.Proved_pressure) -> true
  | (Safe_dead | Safe_pressure), Abs_cache.Proved_harmful -> true
  | _ -> false
