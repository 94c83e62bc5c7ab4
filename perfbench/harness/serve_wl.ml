(* serve-degraded: a live [ripple-sim serve --state-dir] daemon under
   one closed-loop pusher and one open-loop scraper.

   The pusher alternates clean captures of one app (its session stays
   at the "full" rung) with Truncate_pt-faulted captures of another
   (its session lands on "safe-only", where the flush strips unsafe
   hints by running the classifier inside the daemon's select loop).
   The scraper fetches /metrics at a fixed rate and times each scrape
   from when it was due, so a stalled event loop shows in the tail. *)

open Common
module P = Ripple_core.Pipeline
module Program = Ripple_isa.Program
module Pt = Ripple_trace.Pt
module Fault = Ripple_fault.Fault
module Protocol = Ripple_serve.Protocol
module Client = Ripple_serve.Client
module Server = Ripple_serve.Server
module Session = Ripple_serve.Session
module Store = Ripple_serve.Snapshot.Store
module L = Layers

(* (app, instructions per capture).  How many hints a profile yields —
   and so how long the safe-only classifier runs — jumps between
   captures of hint-rich apps (cassandra at 400k instructions flushes
   in 0.5 s or 2.5 s depending on the capture), which no per-run median
   can steady.  The faulted app is therefore one whose truncated
   captures yield few hints, so every safe-only flush costs about the
   same.  This leaves the multi-second stall of a safe-only flush of a
   hint-rich app unexercised: the scrape tail here shows stalls of one
   kafka flush.  The captures' executions are fixed; the seed drives
   the Truncate_pt corruption (how much of each faulted capture
   survives, 70–80 %, which keeps its session on the safe-only
   rung). *)
let clean = ("finagle-http", 200_000)
let faulted = ("kafka", 250_000)
let captures_per_app = 8
let chunk_bytes = 16_384

(* A rolling window smaller than one capture keeps exactly the newest
   generation, so every flush re-instruments from one capture and costs
   the same however long the run. *)
let window = 1_000

let scrape_hz = 120.0

type capture = { app : string; data : bytes; expect : string }

(* The push order: clean and faulted captures alternate. *)
let make_captures tr ~seed =
  let rng = Random.State.make [| seed |] in
  let per_app (app, n_instrs) ~faulted =
    let w = L.generate tr app in
    List.init captures_per_app (fun i ->
        let input = Ripple_workloads.Executor.input ~label:"bench-capture" ~seed:(1000 + i) () in
        let pt = Pt.encode w.Ripple_workloads.Cfg_gen.program (L.execute tr w ~input ~n_instrs) in
        if faulted then
          let fault = Fault.Truncate_pt { keep = 0.7 +. Random.State.float rng 0.1 } in
          { app; data = Fault.corrupt_pt ~seed:(seed + i) fault pt; expect = "safe-only" }
        else { app; data = pt; expect = "full" })
  in
  List.concat
    (List.map2 (fun a b -> [ a; b ]) (per_app clean ~faulted:false) (per_app faulted ~faulted:true))

let options = { P.Options.default with degrade = true }

(* ------------------------------ daemon ------------------------------ *)

type daemon = { pid : int; port : int; metrics_port : int; state_dir : string }

let live = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let start_daemon ~exe ~work ~tag =
  let state_dir = Filename.concat work ("state-" ^ tag) in
  let ready = Filename.concat work ("ready-" ^ tag) in
  rm_rf state_dir;
  rm_rf ready;
  let log_fd =
    Unix.openfile (Filename.concat work "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| exe; "serve"; "--host"; "127.0.0.1"; "--port"; "0"; "--metrics-port"; "0"; "--ready-file"; ready;
       "--state-dir"; state_dir; "--window"; string_of_int window; "--threshold";
       string_of_float options.P.Options.threshold; "--prefetch"; "fdip" |]
  in
  let pid = Unix.create_process exe args null log_fd log_fd in
  Unix.close null;
  Unix.close log_fd;
  live := pid :: !live;
  let deadline = now () +. 30.0 in
  let rec await () =
    let contents =
      try
        let ic = open_in ready in
        let l = try input_line ic with End_of_file -> "" in
        close_in ic;
        l
      with Sys_error _ -> ""
    in
    match String.split_on_char ' ' (String.trim contents) with
    | [ p; mp ] -> (int_of_string p, int_of_string mp)
    | _ ->
      if now () > deadline then failwith "daemon never became ready";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up");
      Unix.sleepf 0.002;
      await ()
  in
  let port, metrics_port = await () in
  { pid; port; metrics_port; state_dir }

(* SIGTERM is the daemon's graceful drain: it should exit 0 by itself.
   Two races in the daemon defeat that.  Each is counted as a miss
   (logged, and reported as serve.sigterm_misses) and left standing:
   - SIGTERM taken between the loop's stop check and a select that
     blocks forever when no connection is open: the daemon hangs.  It
     is woken with one connection after 2 s.
   - SIGTERM that arrives after the ready file is written but before
     the handler is installed: the signal kills the daemon.
   Any other ending fails the check: a non-zero exit, death by another
   signal, or no exit 10 s after the wake. *)
let sigterm_misses = ref 0

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let miss what =
    incr sigterm_misses;
    log "SIGTERM miss: %s" what
  in
  let rec exited deadline =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () > deadline -> None
    | 0, _ ->
      Unix.sleepf 0.01;
      exited deadline
    | _, status -> Some status
  in
  let status =
    match exited (now () +. 2.0) with
    | Some s -> s
    | None -> (
      miss "daemon still running 2 s after SIGTERM, waking its event loop";
      (try
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () -> Unix.close fd)
           (fun () -> Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.metrics_port)))
       with Unix.Unix_error _ -> ());
      match exited (now () +. 10.0) with
      | Some s -> s
      | None ->
        Unix.kill d.pid Sys.sigkill;
        snd (Unix.waitpid [] d.pid))
  in
  live := List.filter (( <> ) d.pid) !live;
  let drained =
    match status with
    | Unix.WEXITED 0 -> true
    | Unix.WSIGNALED s when s = Sys.sigterm ->
      miss "daemon killed by SIGTERM before installing its handler";
      true
    | _ -> false
  in
  check drained "daemon did not drain cleanly on SIGTERM";
  rm_rf d.state_dir

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* ------------------------------ scraper ----------------------------- *)

let schema ~root =
  let ic = open_in (Filename.concat root "docs/metrics.schema") in
  let rec read acc = match input_line ic with l -> read (String.trim l :: acc) | exception End_of_file -> acc in
  let lines = read [] in
  close_in ic;
  List.sort_uniq compare (List.filter (( <> ) "") lines)

let type_lines body =
  List.sort_uniq compare
    (List.filter_map
       (fun l ->
         if String.length l > 7 && String.sub l 0 7 = "# TYPE " then Some (String.sub l 7 (String.length l - 7))
         else None)
       (String.split_on_char '\n' body))

(* One GET /metrics with socket timeouts; returns the body of a 200. *)
let scrape ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Bytes.of_string "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" in
      let rec send off =
        if off < Bytes.length req then send (off + Unix.write fd req off (Bytes.length req - off))
      in
      send 0;
      let b = Buffer.create 16384 and chunk = Bytes.create 65536 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes b chunk 0 n;
          drain ()
      in
      drain ();
      let resp = Buffer.contents b in
      let ok = String.length resp >= 12 && String.sub resp 9 3 = "200" in
      let rec head i =
        if i + 3 >= String.length resp then None
        else if resp.[i] = '\r' && resp.[i + 1] = '\n' && resp.[i + 2] = '\r' && resp.[i + 3] = '\n'
        then Some (i + 4)
        else head (i + 1)
      in
      match (ok, head 0) with
      | true, Some i -> String.sub resp i (String.length resp - i)
      | _ -> failwith "scrape: bad response")

type scrapes = { latency : float list; late : float list; bytes : float list; failed : int; bad_schema : int }

(* Open loop: scrape k is due at t0 + k/rate whatever happened to the
   previous ones; latency counts from the due time. *)
let scraper ~port ~schema ~stop =
  let t0 = now () in
  let rec go k acc =
    if Atomic.get stop then acc
    else begin
      let due = t0 +. (Float.of_int k /. scrape_hz) in
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let start = now () in
      let acc =
        match scrape ~port with
        | body ->
          {
            acc with
            latency = (now () -. due) :: acc.latency;
            late = (start -. due) :: acc.late;
            bytes = Float.of_int (String.length body) :: acc.bytes;
            bad_schema = (acc.bad_schema + if type_lines body = schema then 0 else 1);
          }
        | exception e ->
          log "scrape failed: %s" (Printexc.to_string e);
          { acc with failed = acc.failed + 1; late = (start -. due) :: acc.late }
      in
      go (k + 1) acc
    end
  in
  go 0 { latency = []; late = []; bytes = []; failed = 0; bad_schema = 0 }

(* ------------------------------ pusher ------------------------------ *)

type push_stats = {
  mutable frames : int;
  mutable frame_errors : int;
  mutable chunk_rtt : float list;
  mutable flush_full : float list;
  mutable flush_safe : float list;
  mutable bytes : int;
  mutable chunk_time : float;
  mutable wrong_rung : int;
  pushed : (string, capture list) Hashtbl.t;  (* per app, newest first *)
}

let ok_json = function Protocol.Ok j -> Some j | Protocol.Error _ -> None

let int_member name j = match Json.member name j with Some (Json.Int i) -> i | _ -> -1
let string_member name j = match Json.member name j with Some (Json.String s) -> s | _ -> ""

let chunks data =
  let len = Bytes.length data in
  List.init ((len + chunk_bytes - 1) / chunk_bytes) (fun i ->
      Bytes.sub data (i * chunk_bytes) (min chunk_bytes (len - (i * chunk_bytes))))

(* Hello_v, every chunk, then the flush: all closed loop on one
   connection.  Returns false if any frame was refused. *)
let push c st cap =
  (* A refused frame, an error reply or a socket timeout all count as
     one failed frame. *)
  let request frame ~seq =
    st.frames <- st.frames + 1;
    match ok_json (Client.request_seq c frame ~seq) with
    | Some j -> Some j
    | None | (exception (Failure _ | Unix.Unix_error _)) ->
      st.frame_errors <- st.frame_errors + 1;
      None
  in
  match request (Protocol.Hello_v { app = cap.app; version = Protocol.version }) ~seq:0 with
  | None -> ()
  | Some hello ->
    let seq = ref (int_member "next_seq" hello) in
    List.iter
      (fun data ->
        let t0 = now () in
        ignore (request (Protocol.Chunk_seq { seq = !seq; data }) ~seq:!seq : Json.t option);
        let dt = now () -. t0 in
        st.chunk_rtt <- dt :: st.chunk_rtt;
        st.chunk_time <- st.chunk_time +. dt;
        incr seq)
      (chunks cap.data);
    st.bytes <- st.bytes + Bytes.length cap.data;
    let t0 = now () in
    let reply = request (Protocol.Flush_seq { seq = !seq }) ~seq:!seq in
    let dt = now () -. t0 in    (match reply with
    | Some status ->
      let level = string_member "level" status in
      if level <> cap.expect then begin
        st.wrong_rung <- st.wrong_rung + 1;
        log "%s flush reported %S, expected %S" cap.app level cap.expect
      end;
      if cap.expect = "full" then st.flush_full <- dt :: st.flush_full
      else st.flush_safe <- dt :: st.flush_safe
    | None -> ());
    Hashtbl.replace st.pushed cap.app (cap :: Option.value (Hashtbl.find_opt st.pushed cap.app) ~default:[])

(* ------------------------------ control ----------------------------- *)

let live_status d app =
  let c = Client.connect ~timeout:10.0 ~host:"127.0.0.1" ~port:d.port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      ignore (Client.request c (Protocol.Hello app) : Protocol.reply);
      ok_json (Client.request c Protocol.Status))

(* The in-process control: a fresh server fed the captures still in the
   live session's window (plus one, so the eviction boundary matches)
   must end in the same profile, rung and hint count. *)
let check_against_control d st =
  let server = Server.create { Server.default_config with window; options } in
  Hashtbl.iter
    (fun app newest_first ->
      match live_status d app with
      | None -> check false (app ^ ": no live status")
      | Some live ->
        let keep = min (List.length newest_first) (int_member "generations" live + 1) in
        let conn = Server.Conn.create () in
        let handle f = ok_json (fst (Server.Conn.handle server conn f)) in
        ignore (handle (Protocol.Hello_v { app; version = Protocol.version }) : Json.t option);
        let seq = ref 0 in
        List.iter
          (fun cap ->
            List.iter
              (fun data ->
                ignore (handle (Protocol.Chunk_seq { seq = !seq; data }) : Json.t option);
                incr seq)
              (chunks cap.data);
            ignore (handle (Protocol.Flush_seq { seq = !seq }) : Json.t option);
            incr seq)
          (List.rev (List.filteri (fun i _ -> i < keep) newest_first));
        let control = Option.get (handle Protocol.Status) in
        List.iter
          (fun field ->
            check
              (Json.member field live = Json.member field control)
              (Printf.sprintf "%s: live %s differs from the in-process control" app field))
          [ "profile_fnv"; "level"; "hints" ])
    st.pushed

(* ------------------------------- runs ------------------------------- *)

type live_result = {
  stats : push_stats;
  scrapes : scrapes;
  rss_mb : float;
}

let live_phase ~root ~seconds d captures =
  let schema = schema ~root in
  let c = Client.connect ~timeout:30.0 ~host:"127.0.0.1" ~port:d.port () in
  let st =
    {
      frames = 0;
      frame_errors = 0;
      chunk_rtt = [];
      flush_full = [];
      flush_safe = [];
      bytes = 0;
      chunk_time = 0.0;
      wrong_rung = 0;
      pushed = Hashtbl.create 4;
    }
  in
  (* Warm-up, untimed: each session's first flush also builds its app. *)
  push c st (List.nth captures 0);
  push c st (List.nth captures 1);
  (* The daemon's peak through start-up and one flush of each kind: its
     later peaks move in steps with the GC's heap growth, run to run. *)
  let rss_mb = vm_hwm_mb (string_of_int d.pid) in
  let st = { st with chunk_rtt = []; flush_full = []; flush_safe = []; bytes = 0; chunk_time = 0.0 } in
  let stop = Atomic.make false in
  let scraper_domain = Domain.spawn (fun () -> scraper ~port:d.metrics_port ~schema ~stop) in
  let t_end = now () +. seconds in
  let rec loop i =
    push c st (List.nth captures (i mod List.length captures));
    if now () < t_end then loop (i + 1)
  in
  loop 2;
  Atomic.set stop true;
  let scrapes = Domain.join scraper_domain in
  Client.close c;
  log "daemon VmHWM %.1f MB after warm-up, %.1f MB at the end" rss_mb (vm_hwm_mb (string_of_int d.pid));
  check (st.wrong_rung = 0) (Printf.sprintf "%d flush(es) reported the wrong rung" st.wrong_rung);
  check (scrapes.bad_schema = 0)
    (Printf.sprintf "%d scrape(s) whose # TYPE set differs from docs/metrics.schema" scrapes.bad_schema);
  check_against_control d st;
  { stats = st; scrapes; rss_mb }

let attempted_failed r =
  ( r.stats.frames + List.length r.scrapes.latency + r.scrapes.failed,
    r.stats.frame_errors + r.scrapes.failed )

let ms x = 1000.0 *. x

(* Set-up: capture generation plus daemon start to ready file.  Each
   repetition's daemon is stopped with SIGTERM before the next starts;
   the last one serves the load. *)
let setup ~exe ~work ~seed ~tag =
  let last = ref None in
  timed_setups
    ~undo:(fun () -> Option.iter stop_daemon !last)
    (fun () ->
      let captures = make_captures (Tracer.untraced ()) ~seed in
      let d = start_daemon ~exe ~work ~tag in
      last := Some d;
      (captures, d))

let run ~exe ~work ~root ~seed ~seconds =
  let (captures, d), setup_s = setup ~exe ~work ~seed ~tag:"run" in
  let r = live_phase ~root ~seconds d captures in
  stop_daemon d;
  log "SIGTERM misses: %d" !sigterm_misses;
  let s = r.stats in
  log "flushes full=%d safe-only=%d  p50 full=%.1fms safe-only=%.1fms" (List.length s.flush_full)
    (List.length s.flush_safe) (ms (median s.flush_full)) (ms (median s.flush_safe));
  log "scrapes=%d p50=%.2fms p99=%.2fms  ingest=%.2fMB/s" (List.length r.scrapes.latency)
    (ms (median r.scrapes.latency)) (ms (quantile 0.99 r.scrapes.latency))
    (Float.of_int s.bytes /. 1e6 /. s.chunk_time);
  ( attempted_failed r,
    [
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" r.rss_mb;
      m "op_p50_ms" "ms" (ms (median s.flush_safe));
    ] )

(* ---------------------------- traced run ---------------------------- *)

(* The same frames, fed to in-process sessions with a durable store:
   serve's own cost without the socket layer, then the classifier's
   cost on each safe-only binary. *)
let replay tr ~work ~tag captures =
  let dir = Filename.concat work ("replay-" ^ tag) in
  rm_rf dir;
  let store = Store.open_dir dir in
  let obs = Obs.Run.create () in
  P.register_metrics (Obs.Run.registry obs);
  let sessions = Hashtbl.create 2 in
  let session app =
    match Hashtbl.find_opt sessions app with
    | Some s -> s
    | None ->
      let program = (L.generate tr app).Ripple_workloads.Cfg_gen.program in
      let s = Session.create ~store ~obs ~options ~window ~reemit_every:0 ~name:app ~program () in
      Hashtbl.add sessions app s;
      s
  in
  List.iter
    (fun cap ->
      let s = session cap.app in
      List.iter
        (fun data ->
          match Tracer.span tr "serve.apply_chunk" (fun () -> Session.apply_chunk s ~seq:(Session.next_seq s) data) with
          | `Applied _ -> ()
          | `Duplicate _ | `Gap _ -> check false "in-process chunk not applied")
        (chunks cap.data);
      (match Tracer.span tr "serve.apply_flush" (fun () -> Session.apply_flush s ~seq:(Session.next_seq s)) with
      | `Applied -> ()
      | `Duplicate | `Gap _ -> check false "in-process flush not applied");
      check (P.Degrade.level_name (Session.level s) = cap.expect) "in-process session on the wrong rung";
      (if Session.level s = P.Degrade.Safe_only then
         match Session.last_outcome s with
         | Some oc ->
           let program = oc.P.program in
           let sites =
             Tracer.span tr "analysis.classify" (fun () ->
                 Ripple_analysis.Invalidation_check.classify ~geometry:L.geometry ~entry:(Program.entry program)
                   (Program.blocks program))
           in
           Tracer.count tr "analysis.classify_sites" (List.length sites)
         | None -> check false "safe-only session without an outcome");
      let body = Tracer.span tr "obs.metrics_body" (fun () -> Obs.Snapshot.to_openmetrics (Obs.Run.snapshot obs)) in
      Tracer.count tr "obs.render_bytes" (String.length body))
    captures;
  Hashtbl.iter (fun _ s -> Session.close s) sessions;
  Store.close store;
  rm_rf dir

let run_traced ~exe ~work ~root ~seed ~seconds ~trace_path =
  let (captures, d), _ = setup ~exe ~work ~seed ~tag:"traced" in
  let r = live_phase ~root ~seconds d captures in
  stop_daemon d;
  let (), untraced_s =
    timed (fun () ->
        let tr = Tracer.untraced () in
        replay tr ~work ~tag:"untraced" (make_captures tr ~seed))
  in
  let tr, (), traced_s, majors =
    traced_replays (fun tr -> replay tr ~work ~tag:"traced" (make_captures tr ~seed))
  in
  Tracer.write_chrome tr ~path:trace_path;
  let s = r.stats and sc = r.scrapes in
  ( attempted_failed r,
    L.layer_metrics tr
    @ [
        m "serve.chunk_rtt_p50_ms" "ms" (ms (median s.chunk_rtt));
        m "serve.chunk_rtt_p99_ms" "ms" (ms (quantile 0.99 s.chunk_rtt));
        m "serve.scrape_gen_late_ms" "ms" (ms (quantile 0.99 sc.late));
        m "serve.flush_full_p50_ms" "ms" (ms (median s.flush_full));
        m "serve.flush_safe_only_p50_ms" "ms" (ms (median s.flush_safe));
        m "serve.scrape_p50_ms" "ms" (ms (median sc.latency));
        m "serve.scrape_p99_ms" "ms" (ms (quantile 0.99 sc.latency));
        m "serve.scrapes" "count" (Float.of_int (List.length sc.latency));
        m "serve.ingest_mb_per_s" "MB/s" (Float.of_int s.bytes /. 1e6 /. s.chunk_time);
        m "obs.metrics_body_ms" "ms" (ms (median (Tracer.durations tr (String.equal "obs.metrics_body"))));
        m "obs.scrape_bytes" "bytes" (median sc.bytes);
        m "serve.sigterm_misses" "count" (Float.of_int !sigterm_misses);
      ]
    @ replay_metrics ~majors ~traced_s ~untraced_s )
