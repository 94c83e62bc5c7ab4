(* Shared plumbing of the benchmark harness: clocks and order statistics,
   memory watermarks, the benchmark-owned layer tracer, and the result
   line every run ends with. *)

module Obs = Ripple_obs
module Json = Ripple_util.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile of a small sample moves smoothly with the data. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. Float.of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. Float.of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Each set-up and each measured operation starts from a compacted
   heap, so neither timings nor the RSS high-water mark depend on the
   garbage earlier repetitions left behind.  Not timed. *)
let settle () = Gc.compact ()

(* Set-up is short and noisy: run it seven times, report the median and
   keep the last result.  [undo] releases what the previous repetition
   built, untimed. *)
let timed_setups ?(undo = ignore) f =
  let n = 7 in
  let runs =
    List.init n (fun i ->
        if i > 0 then undo ();
        settle ();
        timed f)
  in
  settle ();
  (fst (List.nth runs (n - 1)), median (List.map snd runs))

(* The measured window: repeat [op] for about [seconds] — another
   repetition starts only if, by the previous one's duration, at least
   half of it fits (one always runs).  Returns each repetition's
   duration. *)
let measure ~seconds op =
  let t_end = now () +. seconds in
  let rec go acc =
    let (), dt = timed op in
    settle ();
    let acc = dt :: acc in
    if now () +. (dt /. 2.0) < t_end then go acc else List.rev acc
  in
  go []

(* VmHWM — the resident-set high-water mark — of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Float.of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* The process's peak through set-up and the first operation only:
   OCaml 5.1 does not compact, so later operations can raise the mark
   by fragmentation, and how many fit the window varies run to run. *)
let first_op_rss () = vm_hwm_mb "self"

(* Words the calling domain has allocated on the minor heap so far —
   every small allocation, exactly, so the per-layer counters repeat to
   the word.  Blocks of more than 256 words go straight to the major
   heap and are not counted: OCaml 5.1 folds those into its counters
   only at major-slice boundaries, so they do not repeat exactly. *)
let alloc_words () =
  Gc.minor_words ()

(* ------------------------------ checks ------------------------------ *)

(* Output checks: each failed check is reported on stderr and makes the
   run incorrect; the harness keeps going so every metric still prints. *)
let failures = ref []

let check ok what = if not ok then failures := what :: !failures

let checks_passed () = !failures = []

(* ------------------------------ tracer ------------------------------ *)

(* Spans are recorded here, around calls into each layer's public
   functions, never inside the library.  A span is named
   "<layer>.<step>" and never nests another layer span, so a layer's
   self time is the sum of its spans.  Counters are deterministic work
   counts (allocations, solver steps, hints, ...): two replays of the
   same inputs must produce identical tables. *)
module Tracer = struct
  type t = { run : Obs.Run.t option; counts : (string, float) Hashtbl.t }

  let untraced () = { run = None; counts = Hashtbl.create 64 }
  let traced () = { run = Some (Obs.Run.create ()); counts = Hashtbl.create 64 }

  let add t name v =
    Hashtbl.replace t.counts name (v +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.0)

  let count t name n = add t name (Float.of_int n)

  let layer_of name =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

  let span t name f =
    match t.run with
    | None -> f ()
    | Some run ->
      let w0 = alloc_words () in
      let r = Obs.Span.with_span (Obs.Run.spans run) name f in
      add t (layer_of name ^ ".alloc_words") (alloc_words () -. w0);
      r

  (* Durations of the spans whose name satisfies [pred]. *)
  let durations t pred =
    match t.run with
    | None -> []
    | Some run ->
      List.filter_map
        (fun (s : Obs.Span.closed) ->
          if pred s.Obs.Span.name then Some (s.Obs.Span.stop_s -. s.Obs.Span.start_s) else None)
        (Obs.Span.closed (Obs.Run.spans run))

  let total = List.fold_left ( +. ) 0.0

  (* Seconds spent in spans named [name], and in all spans of [layer]. *)
  let seconds t name = total (durations t (String.equal name))
  let layer_seconds t layer = total (durations t (fun name -> layer_of name = layer))

  let get t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0

  let sorted_counts t =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts [])

  (* Exact-repeat check of the work counters of two replays. *)
  let check_repeat a b =
    let a = sorted_counts a and b = sorted_counts b in
    List.iter
      (fun (k, x) ->
        match List.assoc_opt k b with
        | Some y when y = x -> ()
        | Some y -> Printf.eprintf "counter %s: %.17g vs %.17g\n" k x y
        | None -> Printf.eprintf "counter %s: %.17g vs absent\n" k x)
      a;
    check (a = b) "work counters differ between traced repeats"

  let write_chrome t ~path =
    match t.run with
    | None -> ()
    | Some run -> Obs.Export.write Obs.Export.chrome_sink ~path run
end

(* ------------------------------ result ------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~attempted ~failed metrics =
  List.iter (fun w -> Printf.eprintf "check failed: %s\n" w) (List.rev !failures);
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (checks_passed () && failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
               metrics) );
      ]
  in
  print_string (Json.to_string json);
  print_newline ()

(* Two traced replays [f tracer]: the first's tracer, result, wall time
   and major collections, once the second has repeated its work
   counters exactly. *)
let traced_replays f =
  let once () =
    let tr = Tracer.traced () in
    let gc0 = (Gc.quick_stat ()).Gc.major_collections in
    let r, wall = timed (fun () -> f tr) in
    (tr, r, wall, (Gc.quick_stat ()).Gc.major_collections - gc0)
  in
  let tr, r, wall, majors = once () in
  let tr2, _, _, _ = once () in
  Tracer.check_repeat tr tr2;
  (tr, r, wall, majors)

let replay_metrics ~majors ~traced_s ~untraced_s =
  [
    m "gc.major_collections" "count" (Float.of_int majors);
    m "bench.traced_wall_s" "s" traced_s;
    m "bench.untraced_wall_s" "s" untraced_s;
    m "bench.tracing_overhead_s" "s" (traced_s -. untraced_s);
  ]

(* Progress for humans goes to stderr; stdout carries only the result. *)
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt
