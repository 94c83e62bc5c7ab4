(* Tests for ripple.prefetch: branch predictors, NLP and FDIP. *)

module Basic_block = Ripple_isa.Basic_block
module Builder = Ripple_isa.Builder
module Program = Ripple_isa.Program
module Access = Ripple_cache.Access
module Branch_pred = Ripple_prefetch.Branch_pred
module Prefetcher = Ripple_prefetch.Prefetcher
module Nlp = Ripple_prefetch.Nlp
module Fdip = Ripple_prefetch.Fdip

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ----------------------------- Gshare ------------------------------- *)

let test_gshare_learns_bias () =
  let g = Branch_pred.Gshare.create () in
  for _ = 1 to 200 do
    Branch_pred.Gshare.train g ~pc:42 ~taken:true
  done;
  checkb "predicts taken" true (Branch_pred.Gshare.predict g ~pc:42);
  checkb "good accuracy" true (Branch_pred.Gshare.accuracy g > 0.9)

let test_gshare_relearns () =
  let g = Branch_pred.Gshare.create () in
  for _ = 1 to 100 do
    Branch_pred.Gshare.train g ~pc:7 ~taken:true
  done;
  for _ = 1 to 100 do
    Branch_pred.Gshare.train g ~pc:7 ~taken:false
  done;
  checkb "flips to not-taken" false (Branch_pred.Gshare.predict g ~pc:7)

let test_gshare_alternating_pattern () =
  (* Global history lets gshare nail a strict alternation. *)
  let g = Branch_pred.Gshare.create () in
  let correct = ref 0 in
  for i = 1 to 2_000 do
    let taken = i mod 2 = 0 in
    if Branch_pred.Gshare.predict g ~pc:9 = taken then incr correct;
    Branch_pred.Gshare.train g ~pc:9 ~taken
  done;
  checkb "learns alternation" true (!correct > 1_800)

(* ------------------------------- Btb -------------------------------- *)

let test_btb_store_predict () =
  let btb = Branch_pred.Btb.create () in
  check (Alcotest.option Alcotest.int) "cold" None (Branch_pred.Btb.predict btb ~pc:5);
  Branch_pred.Btb.train btb ~pc:5 ~target:99;
  check (Alcotest.option Alcotest.int) "hit" (Some 99) (Branch_pred.Btb.predict btb ~pc:5);
  Branch_pred.Btb.train btb ~pc:5 ~target:7;
  check (Alcotest.option Alcotest.int) "last target wins" (Some 7)
    (Branch_pred.Btb.predict btb ~pc:5)

(* ------------------------------- Ras -------------------------------- *)

let test_ras_lifo () =
  let ras = Branch_pred.Ras.create ~depth:4 () in
  Branch_pred.Ras.push ras 1;
  Branch_pred.Ras.push ras 2;
  check (Alcotest.option Alcotest.int) "pop 2" (Some 2) (Branch_pred.Ras.pop ras);
  check (Alcotest.option Alcotest.int) "pop 1" (Some 1) (Branch_pred.Ras.pop ras);
  check (Alcotest.option Alcotest.int) "empty" None (Branch_pred.Ras.pop ras)

let test_ras_overflow_wraps () =
  let ras = Branch_pred.Ras.create ~depth:2 () in
  List.iter (Branch_pred.Ras.push ras) [ 1; 2; 3 ];
  check (Alcotest.option Alcotest.int) "newest" (Some 3) (Branch_pred.Ras.pop ras);
  check (Alcotest.option Alcotest.int) "second" (Some 2) (Branch_pred.Ras.pop ras);
  check (Alcotest.option Alcotest.int) "oldest lost" None (Branch_pred.Ras.pop ras)

let test_ras_copy () =
  let a = Branch_pred.Ras.create ~depth:4 () in
  let b = Branch_pred.Ras.create ~depth:4 () in
  Branch_pred.Ras.push a 11;
  Branch_pred.Ras.copy_into ~src:a ~dst:b;
  Branch_pred.Ras.push a 22;
  check (Alcotest.option Alcotest.int) "copy isolated" (Some 11) (Branch_pred.Ras.pop b)

(* ------------------------------- Nlp -------------------------------- *)

(* Access-triggered: the first reference to a line issues its next
   lines; a repeat trigger is suppressed by the duplicate filter, whatever
   its hit/miss outcome. *)
let test_nlp_next_lines_and_filter () =
  let nlp = Nlp.create ~degree:2 () in
  let first = nlp.Prefetcher.on_demand ~line:10 ~missed:true in
  check (Alcotest.list Alcotest.int) "next two lines" [ 11; 12 ]
    (List.map Access.packed_line first);
  checkb "all prefetch kind" true (List.for_all Access.packed_is_prefetch first);
  checki "repeat trigger filtered (hit)" 0
    (List.length (nlp.Prefetcher.on_demand ~line:10 ~missed:false));
  checki "repeat trigger filtered (miss)" 0
    (List.length (nlp.Prefetcher.on_demand ~line:10 ~missed:true))

(* The replay precondition: none, NLP and FDIP issue a function of
   control flow alone.  Driven over one block sequence with two
   different [missed] sequences, each issues identical packed lists. *)
let test_issue_ignores_missed () =
  let module W = Ripple_workloads in
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let program = w.W.Cfg_gen.program in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:40_000 in
  let issued (pf : Prefetcher.t) missed =
    let out = ref [] in
    Array.iter
      (fun id ->
        let b = Program.block program id in
        out := pf.Prefetcher.on_block b :: !out;
        List.iter (fun line -> out := pf.Prefetcher.on_demand ~line ~missed:(missed ()) :: !out)
          (Basic_block.lines b))
      trace;
    List.rev !out
  in
  let rng = Ripple_util.Prng.create ~seed:5 in
  List.iter
    (fun (name, make) ->
      let all_hits = issued (make ()) (fun () -> false) in
      let random = issued (make ()) (fun () -> Ripple_util.Prng.bool rng) in
      checkb (name ^ " issued something") true
        (name = "none" || List.exists (fun l -> l <> []) all_hits);
      check (Alcotest.list (Alcotest.list Alcotest.int)) (name ^ " ignores missed") all_hits random)
    [
      ("none", fun () -> Prefetcher.none);
      ("nlp", fun () -> Nlp.create ());
      ("fdip", fun () -> Fdip.create ~program ());
    ]

(* ------------------------------- Fdip ------------------------------- *)

(* Straight-line program: FDIP should run ahead perfectly after the
   first block. *)
let straight_program n =
  let b = Builder.create () in
  let first, last = Builder.straight_line b ~bytes_per_block:64 ~n () in
  Builder.set_term b last (Basic_block.Jump first);
  Builder.finish b ~entry:first

let test_fdip_runs_ahead () =
  let program = straight_program 40 in
  let pf, internals = Fdip.create_instrumented ~program () in
  (* Execute the chain once; collect prefetched lines. *)
  let prefetched = Hashtbl.create 64 in
  for id = 0 to 39 do
    List.iter
      (fun a -> Hashtbl.replace prefetched (Access.packed_line a) ())
      (pf.Prefetcher.on_block (Program.block program id))
  done;
  checkb "issued prefetches" true (internals.Fdip.issued () > 0);
  (* Block 10's line should have been prefetched before reaching it. *)
  let line10 = List.hd (Basic_block.lines (Program.block program 10)) in
  checkb "future line prefetched" true (Hashtbl.mem prefetched line10);
  checki "no mispredicts on straight line" 0 (internals.Fdip.mispredicts ())

let test_fdip_mispredict_flush () =
  (* A conditional bouncing both ways forces flushes. *)
  let b = Builder.create () in
  let entry = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let left = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  let right = Builder.block b ~bytes:64 ~term:Basic_block.Halt () in
  Builder.set_term b entry (Basic_block.Cond { taken = left; fallthrough = right });
  Builder.set_term b left (Basic_block.Jump entry);
  Builder.set_term b right (Basic_block.Jump entry);
  let program = Builder.finish b ~entry in
  let pf, internals = Fdip.create_instrumented ~program () in
  let rng = Ripple_util.Prng.create ~seed:4 in
  let current = ref entry in
  for _ = 1 to 2_000 do
    ignore (pf.Prefetcher.on_block (Program.block program !current));
    current :=
      (match (Program.block program !current).Basic_block.term with
      | Basic_block.Cond { taken; fallthrough } ->
        if Ripple_util.Prng.bool rng then taken else fallthrough
      | Basic_block.Jump t -> t
      | _ -> entry)
  done;
  checkb "mispredicts happen on random branch" true (internals.Fdip.mispredicts () > 100)

let test_fdip_issue_width_cap () =
  let program = straight_program 60 in
  let pf, _ = Fdip.create_instrumented ~issue_width:2 ~program () in
  for id = 0 to 59 do
    let issued = pf.Prefetcher.on_block (Program.block program id) in
    checkb "at most issue_width per block" true (List.length issued <= 2)
  done

let test_fdip_reduces_misses_end_to_end () =
  (* Integration: on a predictable workload FDIP must cut misses vs no
     prefetching. *)
  let module W = Ripple_workloads in
  let module Simulator = Ripple_cpu.Simulator in
  let w = W.Cfg_gen.generate W.Apps.verilator in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:300_000 in
  let program = w.W.Cfg_gen.program in
  let none =
    Simulator.run ~program ~trace ~policy:Ripple_cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let fdip =
    Simulator.run ~program ~trace ~policy:Ripple_cache.Lru.make
      ~prefetcher:(Simulator.prefetcher_fdip ?config:None) ()
  in
  checkb "fdip cuts misses by >2x" true
    (fdip.Simulator.demand_misses * 2 < none.Simulator.demand_misses);
  checkb "fdip faster" true (fdip.Simulator.ipc > none.Simulator.ipc)

let suites =
  [
    ( "prefetch.gshare",
      [
        Alcotest.test_case "learns bias" `Quick test_gshare_learns_bias;
        Alcotest.test_case "relearns" `Quick test_gshare_relearns;
        Alcotest.test_case "alternating" `Quick test_gshare_alternating_pattern;
      ] );
    ("prefetch.btb", [ Alcotest.test_case "store/predict" `Quick test_btb_store_predict ]);
    ( "prefetch.ras",
      [
        Alcotest.test_case "lifo" `Quick test_ras_lifo;
        Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
        Alcotest.test_case "copy" `Quick test_ras_copy;
      ] );
    ( "prefetch.nlp",
      [ Alcotest.test_case "next lines + filter" `Quick test_nlp_next_lines_and_filter ] );
    ( "prefetch.replay",
      [ Alcotest.test_case "issue ignores missed" `Quick test_issue_ignores_missed ] );
    ( "prefetch.fdip",
      [
        Alcotest.test_case "runs ahead" `Quick test_fdip_runs_ahead;
        Alcotest.test_case "mispredict flush" `Quick test_fdip_mispredict_flush;
        Alcotest.test_case "issue width" `Quick test_fdip_issue_width_cap;
        Alcotest.test_case "reduces misses" `Quick test_fdip_reduces_misses_end_to_end;
      ] );
  ]
