module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream

type decision = { cue_block : int; victim : int; probability : float; windows : int }

let default_scan_limit = 48
let default_step_limit = 4096
let default_min_support = 3

(* Visit a window's candidate cue blocks: each distinct executed
   (demand) block, scanning from both ends of the window — the blocks
   executed right after the victim's last use (its own continuation,
   typically the strongest predictors) and the blocks leading up to the
   eviction.  Bounded by the scan/step limits.  A block counts as seen
   in this window once [stamp.(block) = id]; [id] must differ from every
   stamp a previous walk left, so [stamp] never needs clearing. *)
let walk_window ~scan_limit (stream : Access_stream.t) (w : Eviction_window.t) ~stamp ~id f =
  let distinct = ref 0 in
  let visit (acc : Access.packed) =
    if Access.packed_is_demand acc then begin
      let block = Access.packed_block acc in
      if stamp.(block) <> id then begin
        stamp.(block) <- id;
        incr distinct;
        f block
      end
    end
  in
  let half_scan = max 1 (scan_limit / 2) and half_step = default_step_limit / 2 in
  let start = w.Eviction_window.start and stop = w.Eviction_window.stop in
  (* Forward from just after the last use. *)
  let steps = ref 0 in
  let i = ref (start + 1) in
  while !i <= stop && !steps < half_step && !distinct < half_scan do
    visit (Access_stream.get stream !i);
    incr steps;
    incr i
  done;
  (* Backward from the eviction trigger, stopping where the forward scan
     ended. *)
  let fwd_end = !i in
  steps := 0;
  let j = ref stop in
  while !j >= fwd_end && !steps < half_step && !distinct < scan_limit do
    visit (Access_stream.get stream !j);
    incr steps;
    decr j
  done

(* (cue block, victim line) key of a kept decision.  Lines fit well
   under 2^40 and block ids under 2^22, so the pair packs into one int. *)
let pack ~victim ~block = (victim lsl 22) lor block

type drops = {
  windows_total : int;
  no_candidate : int;
  below_support : int;
  below_threshold : int;
  selected : int;
}

let analyze_report ?(scan_limit = default_scan_limit) ?(min_support = default_min_support)
    ~stream ~windows ~exec_counts ~threshold () =
  let n = Array.length windows and n_blocks = Array.length exec_counts in
  let victim i = windows.(i).Eviction_window.victim in
  (* Windows grouped by victim, each group in window order. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (victim a) (victim b)) order;
  (* [count.(b)]: windows of the current victim whose walk visits [b].
     Only the cells of blocks in [cands] are ever non-zero. *)
  let count = Array.make n_blocks 0 and stamp = Array.make n_blocks (-1) in
  (* The current group's candidates, window after window in walk order;
     [ends.(k)] closes the run of window [order.(k)]. *)
  let cands = ref (Array.make 1024 0) and n_cands = ref 0 in
  let ends = Array.make n 0 in
  let add_candidate block =
    if !n_cands = Array.length !cands then begin
      let grown = Array.make (2 * !n_cands) 0 in
      Array.blit !cands 0 grown 0 !n_cands;
      cands := grown
    end;
    !cands.(!n_cands) <- block;
    incr n_cands;
    count.(block) <- count.(block) + 1
  in
  (* Per window: its best candidate (-1 for none), that candidate's
     probability and the number of the victim's windows containing it. *)
  let best_block = Array.make n (-1) and best_p = Float.Array.make n (-1.0) in
  let support = Array.make n 0 in
  let score_group first last =
    let cands = !cands in
    let from = ref 0 in
    for k = first to last do
      let wi = order.(k) in
      let bb = ref (-1) and bp = ref (-1.0) in
      for x = !from to ends.(k) - 1 do
        let block = cands.(x) in
        let execs = exec_counts.(block) in
        if execs > 0 then begin
          let p = Float.of_int count.(block) /. Float.of_int execs in
          if p > !bp then begin
            bp := p;
            bb := block
          end
        end
      done;
      best_block.(wi) <- !bb;
      Float.Array.set best_p wi !bp;
      if !bb >= 0 then support.(wi) <- count.(!bb);
      from := ends.(k)
    done;
    for x = 0 to !n_cands - 1 do
      count.(cands.(x)) <- 0
    done;
    n_cands := 0
  in
  let first = ref 0 in
  for k = 0 to n - 1 do
    let wi = order.(k) in
    walk_window ~scan_limit stream windows.(wi) ~stamp ~id:wi add_candidate;
    ends.(k) <- !n_cands;
    if k = n - 1 || victim order.(k + 1) <> victim wi then begin
      score_group !first k;
      first := k + 1
    end
  done;
  (* Keep each window's best candidate when it clears the support and
     the threshold; windows that do not land in a decision are counted
     by the reason they fell out.  Filling [chosen] in window order fixes
     the order the decisions come out in. *)
  let chosen = Hashtbl.create 4096 in
  let no_candidate = ref 0 and below_support = ref 0 and below_threshold = ref 0 in
  let selected = ref 0 in
  for wi = 0 to n - 1 do
    let block = best_block.(wi) and p = Float.Array.get best_p wi in
    if block < 0 then incr no_candidate
    else if support.(wi) < min_support then incr below_support
    else if p < threshold then incr below_threshold
    else begin
      incr selected;
      let victim = victim wi in
      let key = pack ~victim ~block in
      match Hashtbl.find_opt chosen key with
      | Some (block, victim, p, n) -> Hashtbl.replace chosen key (block, victim, p, n + 1)
      | None -> Hashtbl.add chosen key (block, victim, p, 1)
    end
  done;
  let decisions =
    Hashtbl.fold
      (fun _ (cue_block, victim, probability, windows) acc ->
        { cue_block; victim; probability; windows } :: acc)
      chosen []
  in
  ( decisions,
    {
      windows_total = n;
      no_candidate = !no_candidate;
      below_support = !below_support;
      below_threshold = !below_threshold;
      selected = !selected;
    } )

let analyze ?scan_limit ?min_support ~stream ~windows ~exec_counts ~threshold () =
  fst (analyze_report ?scan_limit ?min_support ~stream ~windows ~exec_counts ~threshold ())
