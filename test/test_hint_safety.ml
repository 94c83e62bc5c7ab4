(* Hint-safety dataflow against its history: the classifier's gen/kill
   facts (must-invalidated, hit-liveness) and the abstract proofs'
   re-reference reachability all run on the shared Fixpoint engine.
   Two pins keep that honest:

   - a verbatim copy of the previous private solvers (a round-robin
     must-invalidated sweep per hinted line and a bit-packed FIFO
     liveness worklist) is kept here as the reference, and a property
     demands identical classifications on generated hinted programs;
   - a seeded golden of every hint's (block, index, classification,
     verdict) over a fixed set of generated programs, recorded with the
     previous solvers, pins the abstract verdicts too. *)

module Addr = Ripple_isa.Addr
module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Geometry = Ripple_cache.Geometry
module Cfg = Ripple_analysis.Cfg
module Dominance = Ripple_analysis.Dominance
module Icheck = Ripple_analysis.Invalidation_check
module Abs = Ripple_analysis.Abs_cache

(* ------------------------ generated programs ------------------------ *)

(* A structurally valid, deliberately irregular hinted program: blocks
   of 16..160 bytes laid end to end (so neighbours share lines), random
   terminators over the ordinary blocks, a few blocks nothing targets
   (no predecessors), a closing cycle nothing outside it targets (no
   root reaches it), and 0..3 hints per block.  Hint lines come from a
   few hot lines many blocks hint (so hints meet on paths), the block's
   own lines (reference and hint in one block), anywhere in the
   footprint, and now and then outside it; some hints are repeated
   within a block, some are demotions. *)
let gen_blocks seed =
  let st = Random.State.make [| seed |] in
  let int k = Random.State.int st k in
  let n = 120 + int 80 in
  let cycle = 2 + int 4 in
  let orphans = 1 + int 4 in
  let ordinary = n - cycle - orphans in
  let target () = int ordinary in
  let term i =
    if i >= n - cycle then begin
      let next = if i = n - 1 then n - cycle else i + 1 in
      if int 3 = 0 then Basic_block.Cond { taken = next; fallthrough = target () }
      else Basic_block.Fallthrough next
    end
    else
      match int 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> Basic_block.Fallthrough (target ())
      | 6 | 7 | 8 -> Basic_block.Jump (target ())
      | 9 | 10 | 11 | 12 -> Basic_block.Cond { taken = target (); fallthrough = target () }
      | 13 | 14 -> Basic_block.Call { callee = target (); return_to = target () }
      | 15 -> Basic_block.Indirect [| target (); target (); target () |]
      | 16 -> Basic_block.Indirect_call { callees = [| target (); target () |]; return_to = target () }
      | 17 -> Basic_block.Return
      | _ -> Basic_block.Halt
  in
  let addr = ref Program.user_base in
  let blocks =
    Array.init n (fun id ->
        let bytes = 16 * (1 + int 10) in
        let b =
          {
            Basic_block.id;
            addr = !addr;
            bytes;
            n_instrs = bytes / 4;
            privilege = Basic_block.User;
            jit = false;
            term = term id;
            hints = [||];
          }
        in
        addr := !addr + bytes;
        b)
  in
  let line_of_block i =
    let ls = Basic_block.lines blocks.(i) in
    List.nth ls (int (List.length ls))
  in
  let hot = Array.init 8 (fun _ -> line_of_block (int n)) in
  let hint_line (b : Basic_block.t) =
    match int 20 with
    | 0 -> Addr.line_of (!addr + (Addr.line_size * (1 + int 64)))
    | 1 | 2 | 3 -> line_of_block b.Basic_block.id
    | 4 | 5 | 6 | 7 | 8 | 9 | 10 -> hot.(int (Array.length hot))
    | _ -> line_of_block (int n)
  in
  Array.map
    (fun (b : Basic_block.t) ->
      let hint () =
        let l = hint_line b in
        if int 4 = 0 then Basic_block.Demote l else Basic_block.Invalidate l
      in
      let hints = if int 4 = 0 then [] else List.init (1 + int 3) (fun _ -> hint ()) in
      let hints =
        match hints with h :: _ when int 10 = 0 -> hints @ [ h ] | _ -> hints
      in
      { b with Basic_block.hints = Array.of_list hints })
    blocks

let geometry_of seed =
  if seed mod 2 = 0 then Geometry.v ~size_bytes:(2 * 4 * Addr.line_size) ~ways:2
  else Geometry.v ~size_bytes:(4 * 8 * Addr.line_size) ~ways:4

(* The corner cases the generator exists for, checked rather than
   assumed: more hinted lines than one bit-set word holds, a block with
   no predecessors, a cycle no root reaches, a duplicate hint. *)
let covers blocks =
  let n = Array.length blocks in
  let preds = Cfg.predecessors blocks in
  let hinted = Hashtbl.create 64 in
  Array.iter
    (fun (b : Basic_block.t) ->
      Array.iter (fun h -> Hashtbl.replace hinted (Basic_block.hint_line h) ()) b.Basic_block.hints)
    blocks;
  let seen = Array.make n false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit (Cfg.flow_successors blocks.(v))
    end
  in
  Array.iteri (fun v ps -> if ps = [] then visit v) preds;
  let duplicate (b : Basic_block.t) =
    let ls = Array.to_list (Array.map Basic_block.hint_line b.Basic_block.hints) in
    List.length (List.sort_uniq compare ls) < List.length ls
  in
  Hashtbl.length hinted > 63
  && Array.exists (fun ps -> ps = []) preds
  && Array.exists (fun s -> not s) seen
  && Array.exists duplicate blocks

(* ------------- reference: the pre-Fixpoint private solvers ----------- *)

(* Verbatim copies of the hit-liveness worklist, the per-line
   must-invalidated sweep and the classifier that combined them; only
   module paths are qualified, and unused bindings and some comments
   are dropped. *)
module Ref = struct
  module Liveness = struct
    type t = {
      index : (Addr.line, int) Hashtbl.t;  (* tracked line -> bit index *)
      words : int;  (* bitset words per block *)
      live_in : int array;  (* n_blocks * words *)
      live_out : int array;
    }

    let bits_per_word = Sys.int_size

    let set_bit a ~base i =
      let w = base + (i / bits_per_word) and b = i mod bits_per_word in
      a.(w) <- a.(w) lor (1 lsl b)

    let get_bit a ~base i =
      let w = base + (i / bits_per_word) and b = i mod bits_per_word in
      a.(w) land (1 lsl b) <> 0

    let compute ~blocks ~tracked =
      let index = Hashtbl.create (Array.length tracked * 2) in
      Array.iter
        (fun line ->
          if not (Hashtbl.mem index line) then Hashtbl.add index line (Hashtbl.length index))
        tracked;
      let k = Hashtbl.length index in
      let words = max 1 ((k + bits_per_word - 1) / bits_per_word) in
      let n = Array.length blocks in
      let live_in = Array.make (n * words) 0 and live_out = Array.make (n * words) 0 in
      let gen = Array.make (n * words) 0 and kill = Array.make (n * words) 0 in
      Array.iteri
        (fun i (b : Basic_block.t) ->
          let base = i * words in
          List.iter
            (fun line ->
              match Hashtbl.find_opt index line with
              | Some bit -> set_bit gen ~base bit
              | None -> ())
            (Basic_block.lines b);
          Array.iter
            (fun h ->
              match Hashtbl.find_opt index (Basic_block.hint_line h) with
              | Some bit -> set_bit kill ~base bit
              | None -> ())
            b.Basic_block.hints)
        blocks;
      let preds = Cfg.predecessors blocks in
      (* Worklist fixpoint, seeded with every block; backward flow, so a
         change to in(b) re-queues b's predecessors. *)
      let queued = Array.make n true in
      let queue = Queue.create () in
      for i = n - 1 downto 0 do
        Queue.add i queue
      done;
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        queued.(i) <- false;
        let base = i * words in
        (* out(i) = union of in(s) *)
        List.iter
          (fun s ->
            if s >= 0 && s < n then begin
              let sbase = s * words in
              for w = 0 to words - 1 do
                live_out.(base + w) <- live_out.(base + w) lor live_in.(sbase + w)
              done
            end)
          (Cfg.flow_successors blocks.(i));
        (* in(i) = gen(i) | (out(i) & ~kill(i)) *)
        let changed = ref false in
        for w = 0 to words - 1 do
          let v = gen.(base + w) lor (live_out.(base + w) land lnot kill.(base + w)) in
          if v <> live_in.(base + w) then begin
            live_in.(base + w) <- v;
            changed := true
          end
        done;
        if !changed then
          List.iter
            (fun p ->
              if not queued.(p) then begin
                queued.(p) <- true;
                Queue.add p queue
              end)
            preds.(i)
      done;
      { index; words; live_in; live_out }

    let lookup t a ~block ~line =
      match Hashtbl.find_opt t.index line with
      | None -> false
      | Some bit ->
        let n = Array.length a / t.words in
        if block < 0 || block >= n then false else get_bit a ~base:(block * t.words) bit

    let live_out t ~block ~line = lookup t t.live_out ~block ~line
  end

  let sites_of blocks =
    let acc = ref [] in
    Array.iter
      (fun (b : Basic_block.t) ->
        Array.iteri
          (fun index h ->
            let demote = match h with Basic_block.Demote _ -> true | _ -> false in
            acc :=
              { Icheck.block = b.Basic_block.id; index; line = Basic_block.hint_line h; demote }
              :: !acc)
          b.Basic_block.hints)
      blocks;
    List.rev !acc

  let block_hints_line (b : Basic_block.t) line =
    Array.exists (fun h -> Basic_block.hint_line h = line) b.Basic_block.hints

  let must_invalidated ~blocks ~preds line =
    let n = Array.length blocks in
    let refs = Array.init n (fun i -> List.mem line (Basic_block.lines blocks.(i))) in
    let hinted = Array.init n (fun i -> block_hints_line blocks.(i) line) in
    let inv_in = Array.make n true in
    Array.iteri (fun i ps -> if ps = [] then inv_in.(i) <- false) preds;
    let out i = hinted.(i) || (inv_in.(i) && not refs.(i)) in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if inv_in.(i) && preds.(i) <> [] then begin
          let v = List.for_all out preds.(i) in
          if not v then begin
            inv_in.(i) <- false;
            changed := true
          end
        end
      done
    done;
    (inv_in, refs)

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
    let tracked = Array.of_list (List.map (fun (s : Icheck.site) -> s.Icheck.line) sites) in
    let liveness = Liveness.compute ~blocks ~tracked in
    let dominance = Dominance.of_blocks ~entry blocks in
    let preds = Cfg.predecessors blocks in
    let by_line = Hashtbl.create 64 in
    List.iter
      (fun (s : Icheck.site) ->
        if not (Hashtbl.mem by_line s.Icheck.line) then
          Hashtbl.add by_line s.Icheck.line (must_invalidated ~blocks ~preds s.Icheck.line))
      sites;
    let hint_blocks line =
      List.filter_map
        (fun (s : Icheck.site) -> if s.Icheck.line = line then Some s.Icheck.block else None)
        sites
    in
    List.map
      (fun (s : Icheck.site) ->
        let inv_in, refs = Hashtbl.find by_line s.Icheck.line in
        let duplicate =
          let h = blocks.(s.Icheck.block).Basic_block.hints in
          let dup = ref false in
          for i = 0 to s.Icheck.index - 1 do
            if Basic_block.hint_line h.(i) = s.Icheck.line then dup := true
          done;
          !dup
        in
        let classification =
          if duplicate then Icheck.Redundant { earlier = s.Icheck.block }
          else if inv_in.(s.Icheck.block) && not refs.(s.Icheck.block) then begin
            match
              List.find_opt
                (fun d -> d <> s.Icheck.block && Dominance.dominates dominance ~dom:d s.Icheck.block)
                (hint_blocks s.Icheck.line)
            with
            | Some earlier -> Icheck.Redundant { earlier }
            | None -> (
              match
                find_harmful ~geometry ~blocks ~start:s.Icheck.block ~line:s.Icheck.line
              with
              | Some (reuse_block, conflicts) -> Icheck.Harmful { reuse_block; conflicts }
              | None ->
                if Liveness.live_out liveness ~block:s.Icheck.block ~line:s.Icheck.line then
                  Icheck.Safe_pressure
                else Icheck.Safe_dead)
          end
          else begin
            match find_harmful ~geometry ~blocks ~start:s.Icheck.block ~line:s.Icheck.line with
            | Some (reuse_block, conflicts) -> Icheck.Harmful { reuse_block; conflicts }
            | None ->
              if Liveness.live_out liveness ~block:s.Icheck.block ~line:s.Icheck.line then
                Icheck.Safe_pressure
              else Icheck.Safe_dead
          end
        in
        (s, classification))
      sites
end

(* ----------------------------- the pins ----------------------------- *)

let prop_matches_reference =
  QCheck.Test.make ~count:40 ~name:"classify matches the pre-Fixpoint reference"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let blocks = gen_blocks seed in
      let geometry = geometry_of seed in
      covers blocks
      && Icheck.classify ~geometry ~entry:0 blocks = Ref.classify ~geometry ~entry:0 blocks)

let render (s, c, v) =
  let detail =
    match c with
    | Icheck.Harmful { reuse_block; conflicts } -> Printf.sprintf "@%d/%d" reuse_block conflicts
    | Icheck.Redundant { earlier } -> Printf.sprintf "@%d" earlier
    | Icheck.Safe_dead | Icheck.Safe_pressure -> ""
  in
  Printf.sprintf "%d:%d:%s%s:%s" s.Icheck.block s.Icheck.index
    (Icheck.classification_name c)
    detail (Abs.verdict_name v)

(* Per seed: hint count and the MD5 of the rendered per-hint rows,
   recorded with the pre-Fixpoint solvers. *)
let golden =
  [
    (1, 277, "e00e5ed4497d122f8b7c947af821a27d");
    (2, 324, "4a06dd816726d3a3091d81860611f234");
    (3, 293, "d271705f88b2451b73fcc0779fe2ea62");
    (4, 247, "903e1705b6a5cd7cdc7124b27d7dccf2");
    (5, 222, "3d845e09a7470821a7a878521acdcdc3");
    (6, 298, "7c2f4629d4f8fca5e3ef2c7a45717590");
    (7, 336, "19cbbd7a2cee0dcffeb0db43f113ee2c");
    (8, 233, "69e781ebb4b3aa64cd21b5bcc6bdeee6");
    (9, 291, "6acf14be133c711ef96f8e68a9311144");
    (10, 220, "ed60b4d2b00530b1bd13a93f6faf1a24");
    (11, 222, "dee8d160a09f7027adac495a6c1a9a49");
    (12, 288, "9f07070a324016290a1da86c2dd36c3e");
  ]

let test_verdict_golden () =
  let verdicts = Hashtbl.create 8 in
  List.iter
    (fun (seed, count, digest) ->
      let blocks = gen_blocks seed in
      let rows =
        Icheck.classify_proved ~geometry:(geometry_of seed) ~entry:0 blocks
      in
      List.iter
        (fun (_, _, v) ->
          let name = Abs.verdict_name v in
          Hashtbl.replace verdicts name (1 + Option.value ~default:0 (Hashtbl.find_opt verdicts name)))
        rows;
      let got = Digest.to_hex (Digest.string (String.concat "\n" (List.map render rows))) in
      Alcotest.(check (pair int string))
        (Printf.sprintf "seed %d" seed)
        (count, digest)
        (List.length rows, got))
    golden;
  (* The golden only pins the proofs if it exercises them. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " verdicts covered") true (Hashtbl.mem verdicts name))
    [ "proved_noop"; "proved_dead"; "proved_pressure"; "proved_harmful"; "unproved" ]

let suites =
  [
    ( "analysis.hint_safety",
      [ Alcotest.test_case "seeded verdict golden" `Quick test_verdict_golden ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_matches_reference ] );
  ]
