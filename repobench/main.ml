(* Repository benchmark: times calls into the program's public layer
   functions on one worker, checks every output against
   [Pmdp_exec.Reference], and prints one JSON result line.

     main.exe --workload compile|exec|serve --seed N --seconds S
              --trace 0|1 --pmdp PATH

   See NOTES.md for why each workload exists and what each metric
   means. *)

module Registry = Pmdp_apps.Registry
module Scheduler = Pmdp_core.Scheduler
module Tiled_exec = Pmdp_exec.Tiled_exec
module Reference = Pmdp_exec.Reference
module Resilient = Pmdp_exec.Resilient
module Buf = Pmdp_exec.Buffer
module Native_exec = Pmdp_kernel.Native_exec
module Toolchain = Pmdp_kernel.Toolchain
module Client = Pmdp_service.Client
module Service = Pmdp_service.Service
module Json = Pmdp_report.Json
module Rng = Pmdp_util.Rng
module M = Repobench.Measure
module S = Repobench.Spans

(* The six apps whose DP schedule takes well under a second; the other
   three (camera_pipe, pyramid_blend, local_laplacian) only appear in
   the compile workload, where their DP cost is the point. *)
let small_apps = [ "unsharp"; "harris"; "bilateral_grid"; "interpolate"; "blur"; "morphology" ]
let exec_scale = 8
let small_scale = 32
let config = Pmdp_core.Cost_model.config_of_machine Pmdp_machine.Machine.xeon

(* ---- result accounting --------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if List.length !failures < 20 then failures := msg :: !failures;
      prerr_endline ("repobench: FAILED " ^ msg))
    fmt

(* Per-(metric, app) samples collected during a window. *)
let samples : (string * string, float) Hashtbl.t = Hashtbl.create 64
let record key app v = Hashtbl.add samples (key, app) v
let samples_of key app = Array.of_list (Hashtbl.find_all samples (key, app))
let med key app = M.median (samples_of key app)

let geomean_over apps key = M.geomean (Array.of_list (List.map (fun a -> med key a) apps))

let bits_equal (a : Buf.t) (b : Buf.t) =
  let n = Buf.size a in
  n = Buf.size b
  && a.Buf.dims = b.Buf.dims
  &&
  let rec go i = i >= n || (Int64.equal (Int64.bits_of_float a.Buf.data.(i)) (Int64.bits_of_float b.Buf.data.(i)) && go (i + 1)) in
  go 0

(* Every live-out must be bitwise equal to the reference buffer of the
   same stage. *)
let check_liveouts ~what ~reference results =
  if results = [] then fail "%s: no live-outs" what;
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name reference with
      | None -> fail "%s: live-out %s has no reference" what name
      | Some r -> if not (bits_equal b r) then fail "%s: live-out %s differs from Reference" what name)
    results

let answered_by (o : Resilient.outcome) =
  List.fold_left (fun acc (step, err) -> if err = None then Some step else acc) None o.Resilient.attempts

(* ---- programs and inputs ------------------------------------------- *)

let app_of name = Registry.find_exn name

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Input seeds are drawn from 1..8 by the workload seed; the program
   only ever sees the buffers they generate. *)
let draw_seed rng = 1 + Rng.int rng 8

let inputs_for app ~scale ~seed = app.Registry.inputs ~seed (app.Registry.build ~scale)

let toolchain_or_refuse () =
  match Toolchain.probe () with
  | Some tc -> tc
  | None ->
      prerr_endline
        "repobench: no working C compiler (Toolchain.probe found none); refusing to time the \
         interpreter fallback as native";
      exit 3

(* ---- environment record -------------------------------------------- *)

let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        List.concat_map
          (fun e ->
            let path = Filename.concat dir e in
            if Sys.is_directory path then walk path
            else if List.exists (Filename.check_suffix e) [ ".ml"; ".mli"; ".c"; "dune" ] then [ path ]
            else [])
          (Array.to_list entries)
  in
  let files = walk "lib" @ walk "bin" in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) files)))

let env_json ~seed ~workload (tc : Toolchain.t option) =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cc", match tc with Some t -> Json.String t.Toolchain.version | None -> Json.Null);
      ("openmp", match tc with Some t -> Json.Bool t.Toolchain.openmp | None -> Json.Null);
      ("ocaml", Json.String Sys.ocaml_version);
      ("source_digest", Json.String (source_digest ()));
      ("workers", Json.Int 1);
    ]

(* ---- compile --------------------------------------------------------- *)

let dp_counts p =
  match Scheduler.for_pipeline Scheduler.Dp p with
  | Scheduler.Dp_inc ->
      let t = Pmdp_core.Inc_grouping.run ~initial_limit:8 ~config p in
      List.fold_left
        (fun (s, e) r ->
          let o = r.Pmdp_core.Inc_grouping.outcome in
          (s + o.Pmdp_core.Dp_grouping.enumerated, e + o.Pmdp_core.Dp_grouping.cost_evals))
        (0, 0) t.Pmdp_core.Inc_grouping.rounds
  | _ ->
      let o = Pmdp_core.Dp_grouping.run ~config p in
      (o.Pmdp_core.Dp_grouping.enumerated, o.Pmdp_core.Dp_grouping.cost_evals)

(* One cold compile of [app] at scale 32, on a backend that has never
   seen its kernel: build, DP schedule, lower, verify, instantiate,
   emit, and the first native run (cc, dlopen, validation).  Returns
   the op's CPU seconds; the reference check runs after the clock
   stops. *)
let compile_one backend ~seed (app : Registry.app) =
  let name = app.Registry.name in
  let sp n f = S.with_span ~app:name n f in
  let inputs = inputs_for app ~scale:small_scale ~seed in
  (* Each compile starts from a compacted heap, so its garbage and
     peak do not depend on which app ran before it. *)
  Gc.compact ();
  incr attempted;
  let c0 = M.cpu_now () and w0 = M.wall_now () in
  let p = sp "dsl.build" (fun () -> app.Registry.build ~scale:small_scale) in
  let spec = sp "core.schedule" (fun () -> Scheduler.schedule (Scheduler.for_pipeline Scheduler.Dp p) config p) in
  let ir = sp "plan.lower" (fun () -> Pmdp_plan.of_spec spec) in
  let diags = sp "verify.check" (fun () -> Pmdp_verify.Verify.check_plan ~workers:1 p ir) in
  let plan = sp "exec.instantiate" (fun () -> Tiled_exec.instantiate p ir) in
  let c_src = sp "codegen.emit" (fun () -> Pmdp_codegen.C_emit.emit_kernels p ir) in
  let cc0 = M.child_cpu_now () and a0 = M.cpu_now () in
  let outs =
    sp "kernel.admit" (fun () ->
        try Some (Native_exec.run backend plan ~workers:1 ~inputs)
        with e ->
          fail "compile %s: kernel not admitted: %s" name (Printexc.to_string e);
          None)
  in
  let cc = M.child_cpu_now () -. cc0 and admit = M.cpu_now () -. a0 in
  let cpu = M.cpu_now () -. c0 and wall = M.wall_now () -. w0 in
  record "op_cpu" name cpu;
  record "op_wall" name wall;
  record "kernel.cc" name cc;
  record "kernel.admit" name (admit -. cc);
  record "plan.groups" name (float_of_int (Pmdp_plan.n_groups ir));
  record "codegen.c_bytes" name (float_of_int (String.length c_src));
  if not (Pmdp_verify.Verify.is_clean diags) then fail "compile %s: Verify.check_plan found errors" name;
  (match outs with
  | None -> ()
  | Some outs ->
      let reference = sp "exec.reference" (fun () -> Reference.run p ~inputs) in
      check_liveouts ~what:("compile " ^ name) ~reference outs);
  cpu

let compile_pass ~rng ~traced =
  S.enabled := traced;
  let backend = Native_exec.create () in
  (* Registry order, not a seeded one: the process's peak memory
     depends on which app's garbage the next app's heap grows over. *)
  let order = List.map (fun a -> a.Registry.name) Registry.all in
  let total =
    List.fold_left
      (fun acc name ->
        acc +. compile_one backend ~seed:(draw_seed rng) (app_of name))
      0.0 order
  in
  S.enabled := false;
  total

(* ---- exec --------------------------------------------------------------- *)

type ready = {
  app : Registry.app;
  plan : Tiled_exec.plan;
  seed : int;  (** input seed of this part *)
  inputs : (string * Buf.t) list;
  mutable refs : (string * Buf.t) list;  (** Reference live-outs for [inputs] *)
}

let check_outcome ~step ~what ~reference = function
  | Error e -> fail "%s: %s" what (Pmdp_util.Pmdp_error.to_string e)
  | Ok (o : Resilient.outcome) ->
      if o.Resilient.degraded then fail "%s: degraded run" what;
      if answered_by o <> Some step then
        fail "%s: answered by %s, expected %s" what
          (match answered_by o with Some s -> Resilient.step_name s | None -> "nothing")
          (Resilient.step_name step);
      Option.iter
        (fun reference ->
          check_liveouts ~what ~reference o.Resilient.results;
          List.iter
            (fun (n, _) -> if not (List.mem_assoc n o.Resilient.results) then fail "%s: live-out %s missing" what n)
            reference)
        reference

(* The program's own set-up: toolchain probe, plans ready, kernels
   compiled and admitted, and the first reply of every app. *)
let exec_setup prepared =
  let c0 = M.cpu_now () in
  let backend = Native_exec.create () in
  Native_exec.install backend;
  let ready =
    List.map
      (fun (app, seed, inputs) ->
        let p = app.Registry.build ~scale:exec_scale in
        let spec = Scheduler.schedule (Scheduler.for_pipeline Scheduler.Dp p) config p in
        let plan = Tiled_exec.plan spec in
        check_outcome ~step:Resilient.Native ~what:("set-up " ^ app.Registry.name) ~reference:None
          (Resilient.run_plan plan ~inputs);
        { app; plan; seed; inputs; refs = [] })
      prepared
  in
  (M.cpu_now () -. c0, backend, ready)

(* One [run_plan] of [r]: natively when [native] is given (the runner
   is installed), else through the interpreter (runner uninstalled, so
   [tiled-serial] answers).  Interpreter samples are keyed "interp.*". *)
let exec_op ~traced native rng r =
  let name = r.app.Registry.name in
  let tag = if native = None then "interp." else "" in
  let inputs = r.inputs and reference = r.refs in
  let what = Printf.sprintf "%s %s seed %d" (if native = None then "interp" else "native") name r.seed in
  (* The layer underneath, called directly, so run_plan's own cost
     shows as the difference. *)
  let direct () =
    let w0 = M.wall_now () and c0 = M.cpu_now () in
    let outs =
      S.with_span ~app:name (if native = None then "exec.interp" else "kernel.run") (fun () ->
          match native with
          | Some b -> Native_exec.run b r.plan ~workers:1 ~inputs
          | None -> Tiled_exec.run r.plan ~inputs)
    in
    let cpu = M.cpu_now () -. c0 in
    record (tag ^ "direct_cpu") name cpu;
    record (tag ^ "direct_wall") name (M.wall_now () -. w0);
    check_liveouts ~what:(what ^ " (direct)") ~reference outs;
    cpu
  in
  (* Whichever call runs second finds the inputs in cache: alternate. *)
  let direct_first = traced && Rng.bool rng in
  let first = if direct_first then direct () else 0.0 in
  incr attempted;
  let w0 = M.wall_now () and c0 = M.cpu_now () in
  let outcome = S.with_span ~app:name "exec.resilient" (fun () -> Resilient.run_plan r.plan ~inputs) in
  let cpu = M.cpu_now () -. c0 and wall = M.wall_now () -. w0 in
  record (tag ^ "op_cpu") name cpu;
  record (tag ^ "op_wall") name wall;
  let step = if native = None then Resilient.Tiled_serial else Resilient.Native in
  check_outcome ~step ~what ~reference:(Some reference) outcome;
  if traced then begin
    let direct_cpu = if direct_first then first else direct () in
    record (tag ^ "resilient_cpu") name (cpu -. direct_cpu)
  end

(* Rounds over every app in seeded order.  With [interp], every ninth
   round runs on the interpreter (about nine times slower), so the two
   backends get similar time and load from neighbours hits both alike. *)
let exec_window ~traced ~interp ~seconds backend rng ready =
  S.enabled := traced;
  let stop = M.wall_now () +. seconds in
  let rounds = ref 0 and at_least = if interp then 9 else 1 in
  while !rounds < at_least || M.wall_now () < stop do
    let native = if interp && !rounds mod 9 = 8 then None else Some backend in
    if native = None then Native_exec.uninstall () else Native_exec.install backend;
    List.iter (exec_op ~traced native rng) (shuffle rng ready);
    incr rounds
  done;
  Native_exec.install backend;
  S.enabled := false

(* DP against the two baseline schedulers on the native backend: the
   geomean over the apps of DP's median kernel CPU over the baseline's. *)
let schedule_quality backend rng ready =
  let kinds = [ Scheduler.Dp; Scheduler.Halide; Scheduler.Greedy ] in
  let per_app =
    List.map
      (fun r ->
        let p = Tiled_exec.pipeline r.plan in
        let inputs = r.inputs in
        (* Baseline plans materialize other live-outs: compare them all. *)
        let reference = Reference.run p ~inputs in
        let plans =
          List.map
            (fun k ->
              if k = Scheduler.Dp then (k, r.plan)
              else (k, Tiled_exec.plan (Scheduler.schedule (Scheduler.for_pipeline k p) config p)))
            kinds
        in
        let times = List.map (fun k -> (k, ref [])) kinds in
        for _ = 1 to 7 do
          List.iter
            (fun (k, plan) ->
              incr attempted;
              let c0 = M.cpu_now () in
              let outs = Native_exec.run backend plan ~workers:1 ~inputs in
              let dt = M.cpu_now () -. c0 in
              let cell = List.assoc k times in
              cell := dt :: !cell;
              check_liveouts ~reference
                ~what:(Printf.sprintf "%s %s plan" r.app.Registry.name (Scheduler.to_string k))
                outs)
            (shuffle rng plans)
        done;
        (* The first run of each baseline plan admits its kernel. *)
        List.map (fun (k, cell) -> (k, M.median (Array.of_list (List.tl (List.rev !cell))))) times)
      ready
  in
  let ratio base =
    M.geomean
      (Array.of_list (List.map (fun t -> List.assoc Scheduler.Dp t /. List.assoc base t) per_app))
  in
  (ratio Scheduler.Halide, ratio Scheduler.Greedy)

(* ---- serve -------------------------------------------------------------- *)

let run_dir = Printf.sprintf ".repobench/run-%d" (Unix.getpid ())
let live_children : int list ref = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

type server = { pid : int; client : Client.t }

let server_cpu pid =
  let c = M.proc_cpu pid in
  c.M.utime +. c.M.stime +. c.M.cutime +. c.M.cstime

let start_server ~pmdp ~index =
  let sock = Printf.sprintf "%s/s%d.sock" run_dir index in
  let kernels = Printf.sprintf "%s/kernels-%d" run_dir index in
  mkdir_p kernels;
  let log = Unix.openfile (Printf.sprintf "%s/server-%d.log" run_dir index) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process pmdp
      [| pmdp; "serve"; "--native"; "-j"; "1"; "--shards"; "1"; "--socket"; sock; "--kernel-cache-dir"; kernels |]
      Unix.stdin log log
  in
  Unix.close log;
  live_children := pid :: !live_children;
  let endpoint = Pmdp_service.Transport.Uds sock in
  let deadline = M.wall_now () +. 60.0 in
  let rec connect () =
    match Client.connect ~endpoint () with
    | Ok c -> c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_children := List.filter (( <> ) pid) !live_children;
            failwith "pmdp serve exited during start-up");
        if M.wall_now () > deadline then failwith ("cannot reach pmdp serve: " ^ Pmdp_util.Pmdp_error.to_string e);
        Unix.sleepf 0.02;
        connect ()
  in
  { pid; client = connect () }

let stop_server s =
  ignore (Client.shutdown_server s.client);
  Client.close s.client;
  let deadline = M.wall_now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when M.wall_now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait ();
  live_children := List.filter (( <> ) s.pid) !live_children

(* Reference checksums per (app, seed, stage), computed here, never
   taken from the server. *)
let reference_checksums apps =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun name ->
      let app = app_of name in
      let p = app.Registry.build ~scale:small_scale in
      for seed = 1 to 8 do
        let ref_ = Reference.run p ~inputs:(app.Registry.inputs ~seed p) in
        List.iter (fun (stage, b) -> Hashtbl.replace tbl (name, seed, stage) (Buf.checksum b)) ref_
      done)
    apps;
  tbl

let submit ~checks ~expect_hit (s : server) ~app ~seed =
  incr attempted;
  let what = Printf.sprintf "serve %s seed %d" app seed in
  let w0 = M.wall_now () in
  let r = Client.submit s.client (Service.request ~scale:small_scale ~scheduler:Scheduler.Dp ~seed app) in
  let latency = M.wall_now () -. w0 in
  match r with
  | Error e ->
      fail "%s: %s" what (Pmdp_util.Pmdp_error.to_string e);
      None
  | Ok resp ->
      if resp.Client.degraded then fail "%s: degraded response" what;
      if expect_hit && not resp.Client.cache_hit then fail "%s: plan-cache miss after warm-up" what;
      if resp.Client.outputs = [] then fail "%s: no outputs" what;
      List.iter
        (fun (stage, cks) ->
          match Hashtbl.find_opt checks (app, seed, stage) with
          | Some c when Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float cks) -> ()
          | Some _ -> fail "%s: checksum of %s differs from Reference" what stage
          | None -> fail "%s: output %s has no reference" what stage)
        resp.Client.outputs;
      Some (latency, resp)

let cache_counts (s : server) =
  match Client.stats s.client with
  | Error e -> failwith ("stats: " ^ Pmdp_util.Pmdp_error.to_string e)
  | Ok j ->
      let get k =
        Option.bind (Json.member "totals" j) (fun t ->
            Option.bind (Json.member "cache" t) (fun c -> Option.bind (Json.member k c) Json.to_int_opt))
      in
      (Option.value ~default:0 (get "hits"), Option.value ~default:0 (get "misses"))

(* Start a fresh server and bring every app to its first reply; the
   set-up time is the server's own CPU (with the C compilers it
   reaped) up to that point. *)
let serve_setup ~pmdp ~checks ~rng ~index =
  let s = start_server ~pmdp ~index in
  List.iter
    (fun app -> ignore (submit ~checks ~expect_hit:false s ~app ~seed:(draw_seed rng)))
    small_apps;
  (server_cpu s.pid, s)

let serve_window ~traced ~seconds ~checks rng (s : server) =
  S.enabled := traced;
  let h0, m0 = cache_counts s in
  let cpu0 = (M.proc_cpu s.pid) in
  let mine0 = M.cpu_now () in
  let stop = M.wall_now () +. seconds in
  let completed = ref 0 and n = ref 0 in
  let all_lat = ref [] in
  while !n = 0 || M.wall_now () < stop do
    let order = shuffle rng small_apps in
    List.iter
      (fun app ->
        incr n;
        let seed = draw_seed rng in
        S.current_req := !n;
        match S.with_span ~app "client.submit" (fun () -> submit ~checks ~expect_hit:true s ~app ~seed) with
        | None -> ()
        | Some (lat, resp) ->
            incr completed;
            all_lat := lat :: !all_lat;
            record "op_wall" app lat;
            record "service.execute" app resp.Client.wall_seconds;
            record "service.queue" app resp.Client.queue_seconds;
            record "service.outside" app (lat -. resp.Client.wall_seconds -. resp.Client.queue_seconds);
            if traced && !n mod 8 = 0 then begin
              let w = M.wall_now () in
              (match S.with_span "service.rtt" (fun () -> Client.health s.client) with
              | Ok _ -> ()
              | Error e -> fail "health: %s" (Pmdp_util.Pmdp_error.to_string e));
              record "service.rtt" "" (M.wall_now () -. w)
            end)
      order
  done;
  let cpu1 = M.proc_cpu s.pid in
  let mine = M.cpu_now () -. mine0 in
  let h1, m1 = cache_counts s in
  S.enabled := false;
  let server_cpu = cpu1.M.utime +. cpu1.M.stime -. cpu0.M.utime -. cpu0.M.stime in
  if m1 - m0 <> 0 then fail "serve: %d plan-cache misses after warm-up" (m1 - m0);
  record "server_cpu" "" server_cpu;
  record "completed" "" (float_of_int !completed);
  let c = float_of_int (max 1 !completed) in
  (server_cpu /. c, mine /. c, Array.of_list !all_lat, h1 - h0, m1 - m0)

(* In-process probes of the layers a served request crosses, at the
   served shapes (scale 32). *)
let serve_layer_probes rng =
  S.enabled := true;
  S.current_req := 0;
  let backend = Native_exec.create () in
  List.iter
    (fun name ->
      let app = app_of name in
      let p = app.Registry.build ~scale:small_scale in
      let plan = Tiled_exec.plan (Scheduler.schedule (Scheduler.for_pipeline Scheduler.Dp p) config p) in
      for i = 0 to 20 do
        let seed = draw_seed rng in
        let sp n f = S.with_span ~app:name n f in
        let c0 = M.cpu_now () in
        let inputs = sp "apps.inputs" (fun () -> app.Registry.inputs ~seed p) in
        let c1 = M.cpu_now () in
        incr attempted;
        let outs = sp "kernel.small_run" (fun () -> Native_exec.run backend plan ~workers:1 ~inputs) in
        let c2 = M.cpu_now () in
        let cks = sp "exec.checksum" (fun () -> List.fold_left (fun acc (_, b) -> acc +. Buf.checksum b) 0.0 outs) in
        let c3 = M.cpu_now () in
        ignore (Sys.opaque_identity cks);
        (* Run 0 admits the kernel; only warm runs are kept. *)
        if i > 0 then begin
          record "apps.inputs" name (c1 -. c0);
          record "kernel.small_run" name (c2 -. c1);
          record "exec.checksum" name (c3 -. c2)
        end;
        let reference = Reference.run p ~inputs in
        check_liveouts ~what:("small run " ^ name) ~reference outs
      done)
    small_apps;
  S.enabled := false

(* ---- metric names and results ------------------------------------------ *)

let metric_names =
  [
    "dsl.build_ms"; "core.schedule_ms"; "core.schedule_ms.camera_pipe"; "core.schedule_ms.pyramid_blend";
    "core.schedule_ms.local_laplacian"; "core.dp_states"; "core.cost_evals"; "plan.lower_ms"; "plan.groups";
    "verify.check_ms"; "exec.instantiate_ms"; "codegen.emit_ms"; "codegen.c_bytes"; "kernel.cc_ms";
    "kernel.admit_ms"; "exec.reference_ms"; "compile_cpu_s"; "kernel.run_ms";
  ]
  @ List.map (fun a -> "kernel.run_ms." ^ a) small_apps
  @ [
      "exec.resilient_ms"; "kernel.wall_ms"; "core.dp_vs_halide"; "core.dp_vs_greedy"; "native_ms"; "exec.interp_ms";
      "exec.interp_resilient_ms";
    ]
  @ List.map (fun a -> "exec.interp_ms." ^ a) small_apps
  @ [
      "interp_ms"; "service.execute_ms"; "service.queue_ms"; "service.outside_ms"; "service.rtt_ms";
      "apps.inputs_ms"; "kernel.small_run_ms"; "exec.checksum_ms"; "service.plan_cache_hits";
      "service.plan_cache_misses";
    ]
  @ List.map (fun a -> "request_p50_ms." ^ a) small_apps
  @ [ "request_p50_ms"; "request_p99_ms"; "server_cpu_ms"; "client.cpu_ms"; "trace.overhead_pct" ]

let unit_of name =
  if name = "core.dp_states" || name = "core.cost_evals" || name = "plan.groups"
     || String.starts_with ~prefix:"service.plan_cache" name
  then "count"
  else if name = "codegen.c_bytes" then "bytes"
  else if name = "compile_cpu_s" then "s"
  else if name = "trace.overhead_pct" then "%"
  else if String.starts_with ~prefix:"core.dp_vs" name then "ratio"
  else "ms"

(* Self CPU of the recorded spans of [name], per app, summed over the
   apps of one compile pass. *)
let span_self_by_app name =
  let tbl = Hashtbl.create 16 in
  List.iter (fun ((s : S.span), self) -> if s.S.name = name then Hashtbl.add tbl s.S.app self) (S.self_cpu (S.all ()));
  tbl

let per_pass_ms name =
  let tbl = span_self_by_app name in
  let apps = List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys tbl)) in
  List.fold_left (fun acc a -> acc +. (M.median (Array.of_list (Hashtbl.find_all tbl a)) *. 1000.0)) 0.0 apps

let ms x = x *. 1000.0

type args = { workload : string; seed : int; seconds : float; trace : bool; pmdp : string; part : int }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and pmdp = ref "" in
  let part = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile|exec|serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--pmdp", Arg.Set_string pmdp, "PATH the pmdp executable (serve workload)");
      ("--part", Arg.Set_int part, "K internal: measure one part of an untraced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --pmdp PATH";
  if not (List.mem !workload [ "compile"; "exec"; "serve" ]) then begin
    prerr_endline "repobench: --workload must be compile, exec or serve";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; pmdp = !pmdp; part = !part }

let emit_result ~detail ~env metrics =
  let correct = !failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("env", env);
            ("detail", Json.Obj detail);
            ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures));
          ]));
  let metric (name, unit, v) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !attempted !failed
    (String.concat ", " (List.map metric metrics));
  if not correct then exit 1

(* Every per-layer name is printed on every workload; a layer the
   workload does not exercise reads 0. *)
let layer_metrics values =
  List.map (fun n -> (n, unit_of n, Option.value ~default:0.0 (List.assoc_opt n values))) metric_names

let all_apps = List.map (fun a -> a.Registry.name) Registry.all
let spans_file a = Printf.sprintf ".repobench/spans-%s-%d.jsonl" a.workload a.seed
let overhead_pct ~traced ~untraced = (traced -. untraced) /. untraced *. 100.0

(* ---- one part of an untraced run ---------------------------------------- *)

(* Each part is its own process: one set-up, then its share of the
   window.  Whatever a process's memory layout or the host's load at
   that moment does to its speed is then averaged over the parts
   instead of deciding the whole run. *)

let compile_window ~traced rng seconds =
  let stop = M.wall_now () +. seconds in
  let passes = ref [] in
  while !passes = [] || M.wall_now () < stop do
    passes := compile_pass ~rng ~traced :: !passes
  done;
  M.median (Array.of_list !passes)

let part_compile a rng =
  ignore (toolchain_or_refuse ());
  (* Set-up is only the toolchain probe, so it repeats in-process. *)
  let setups =
    List.init 3 (fun _ ->
        let c0 = M.cpu_now () in
        ignore (Sys.opaque_identity (Toolchain.probe ()));
        M.cpu_now () -. c0)
  in
  ignore (compile_window ~traced:false rng a.seconds);
  (M.median (Array.of_list setups), M.peak_rss_mb 0)

(* Inputs, one set-up, then references (the benchmark's own work,
   outside the set-up time). *)
let exec_ready rng =
  ignore (toolchain_or_refuse ());
  let prepared =
    List.map
      (fun name ->
        let app = app_of name in
        let seed = draw_seed rng in
        (app, seed, inputs_for app ~scale:exec_scale ~seed))
      small_apps
  in
  let setup_s, backend, ready = exec_setup prepared in
  List.iter
    (fun r ->
      let p = Tiled_exec.pipeline r.plan in
      let live = Tiled_exec.liveout_stages r.plan in
      r.refs <- List.filter (fun (n, _) -> List.mem n live) (Reference.run p ~inputs:r.inputs))
    ready;
  Gc.compact ();
  (setup_s, backend, ready)

let part_exec a rng =
  let setup_s, backend, ready = exec_ready rng in
  exec_window ~traced:false ~interp:false ~seconds:a.seconds backend rng ready;
  (setup_s, M.peak_rss_mb 0)

let serve_ready a rng =
  if a.pmdp = "" || not (Sys.file_exists a.pmdp) then begin
    prerr_endline "repobench: serve needs --pmdp PATH to the pmdp executable";
    exit 2
  end;
  ignore (toolchain_or_refuse ());
  mkdir_p run_dir;
  let checks = reference_checksums small_apps in
  let setup_s, server = serve_setup ~pmdp:a.pmdp ~checks ~rng ~index:0 in
  (setup_s, checks, server)

let finish_server server =
  let rss = M.peak_rss_mb server.pid in
  stop_server server;
  rss

let part_serve a rng =
  let setup_s, checks, server = serve_ready a rng in
  ignore (serve_window ~traced:false ~seconds:a.seconds ~checks rng server);
  (setup_s, finish_server server)

let part_json (setup_s, rss) =
  let groups = Hashtbl.create 64 in
  Hashtbl.iter (fun k v -> Hashtbl.replace groups k (v :: Option.value ~default:[] (Hashtbl.find_opt groups k))) samples;
  Json.Obj
    [
      ("setup_s", Json.Float setup_s);
      ("peak_rss_mb", Json.Float rss);
      ("attempted", Json.Int !attempted);
      ("failed", Json.Int !failed);
      ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures));
      ( "samples",
        Json.List
          (Hashtbl.fold
             (fun (key, app) vs acc ->
               Json.List [ Json.String key; Json.String app; Json.List (List.map (fun v -> Json.Float v) vs) ] :: acc)
             groups []) );
    ]

(* ---- untraced run: parts in child processes, merged ------------------------ *)

let parts_of = function "compile" -> 1 | _ -> 3

let run_part a k ~seconds =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--part"; string_of_int k; "--workload"; a.workload; "--seed"; string_of_int a.seed; "--seconds";
      Printf.sprintf "%.17g" seconds; "--trace"; "0"; "--pmdp"; a.pmdp;
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "part %d of %s did not finish" k a.workload));
  match !lines with
  | last :: _ -> (
      match Json.of_string last with Ok j -> j | Error e -> failwith ("part result: " ^ e))
  | [] -> failwith "part printed nothing"

let merge_part j =
  let num k = Option.bind (Json.member k j) Json.to_float_opt |> Option.value ~default:nan in
  let int k = Option.bind (Json.member k j) Json.to_int_opt |> Option.value ~default:0 in
  attempted := !attempted + int "attempted";
  failed := !failed + int "failed";
  Option.iter
    (List.iter (fun f -> Option.iter (fun s -> failures := s :: !failures) (Json.to_string_opt f)))
    (Option.bind (Json.member "failures" j) Json.to_list_opt);
  Option.iter
    (List.iter (fun g ->
         match Json.to_list_opt g with
         | Some [ key; app; vs ] ->
             let key = Option.get (Json.to_string_opt key) and app = Option.get (Json.to_string_opt app) in
             List.iter
               (fun v -> record key app (Option.get (Json.to_float_opt v)))
               (Option.value ~default:[] (Json.to_list_opt vs))
         | _ -> failwith "malformed part samples"))
    (Option.bind (Json.member "samples" j) Json.to_list_opt);
  (num "setup_s", num "peak_rss_mb")

let run_untraced a env =
  let n = parts_of a.workload in
  let parts = List.init n (fun k -> merge_part (run_part a k ~seconds:(a.seconds /. float_of_int n))) in
  let setup_s = M.median (Array.of_list (List.map fst parts)) in
  let rss = M.median (Array.of_list (List.map snd parts)) in
  let sum key apps = List.fold_left (fun acc n -> acc +. med key n) 0.0 apps in
  let total key = Array.fold_left ( +. ) 0.0 (samples_of key "") in
  let apps = if a.workload = "compile" then all_apps else small_apps in
  let latency = ms (geomean_over apps "op_wall") in
  let per_app label key = List.map (fun n -> (label ^ "." ^ n, Json.Float (ms (med key n)))) apps in
  let cpu, detail =
    match a.workload with
    | "compile" ->
        let pass = sum "op_cpu" apps in
        (ms pass, ("compile_cpu_s", Json.Float pass) :: per_app "compile_cpu_ms" "op_cpu")
    | "exec" ->
        let cpu = ms (geomean_over apps "op_cpu") in
        ( cpu,
          ("native_ms", Json.Float cpu)
          :: ("ops_per_app", Json.Int (Array.length (samples_of "op_cpu" "blur")))
          :: per_app "native_ms" "op_cpu" )
    | _ ->
        let lat = Array.concat (List.map (fun n -> samples_of "op_wall" n) apps) in
        let server_cpu = total "server_cpu" /. total "completed" in
        ( ms server_cpu,
          [
            ("request_p50_ms", Json.Float (ms (M.percentile 50.0 lat)));
            ("request_p99_ms", Json.Float (ms (M.percentile 99.0 lat)));
            ("requests", Json.Int (Array.length lat));
            ("server_cpu_ms", Json.Float (ms server_cpu));
          ]
          @ per_app "request_p50_ms" "op_wall" )
  in
  (* Wall-clock latency is reported but not gated: on a host with steal
     it spread 17% between runs where CPU time spread 5%. *)
  emit_result ~env
    ~detail:(("parts", Json.Int n) :: ("latency_ms", Json.Float latency) :: detail)
    [ ("setup_s", "s", setup_s); ("peak_rss_mb", "MB", rss); ("cpu_ms", "ms", cpu) ]

(* ---- traced runs: one process, half the window untraced --------------------- *)

let trace_compile a env rng =
  ignore (toolchain_or_refuse ());
  let untraced = compile_window ~traced:false rng (a.seconds /. 2.0) in
  Hashtbl.reset samples;
  S.reset ();
  let traced = compile_window ~traced:true rng (a.seconds /. 2.0) in
  let sum key = List.fold_left (fun acc n -> acc +. med key n) 0.0 all_apps in
  let states, evals =
    List.fold_left
      (fun (s, e) n ->
        let ds, de = dp_counts ((app_of n).Registry.build ~scale:small_scale) in
        (s + ds, e + de))
      (0, 0) all_apps
  in
  let sched = span_self_by_app "core.schedule" in
  let sched_of app = ms (M.median (Array.of_list (Hashtbl.find_all sched app))) in
  S.write (spans_file a);
  emit_result ~env ~detail:[ ("compile_cpu_s", Json.Float traced) ]
    (layer_metrics
       [
         ("dsl.build_ms", per_pass_ms "dsl.build");
         ("core.schedule_ms", per_pass_ms "core.schedule");
         ("core.schedule_ms.camera_pipe", sched_of "camera_pipe");
         ("core.schedule_ms.pyramid_blend", sched_of "pyramid_blend");
         ("core.schedule_ms.local_laplacian", sched_of "local_laplacian");
         ("core.dp_states", float_of_int states);
         ("core.cost_evals", float_of_int evals);
         ("plan.lower_ms", per_pass_ms "plan.lower");
         ("plan.groups", sum "plan.groups");
         ("verify.check_ms", per_pass_ms "verify.check");
         ("exec.instantiate_ms", per_pass_ms "exec.instantiate");
         ("codegen.emit_ms", per_pass_ms "codegen.emit");
         ("codegen.c_bytes", sum "codegen.c_bytes");
         ("kernel.cc_ms", ms (sum "kernel.cc"));
         ("kernel.admit_ms", ms (sum "kernel.admit"));
         ("exec.reference_ms", per_pass_ms "exec.reference");
         ("compile_cpu_s", traced);
         ("trace.overhead_pct", overhead_pct ~traced ~untraced);
       ])

let trace_exec a env rng =
  let apps = small_apps in
  let _, backend, ready = exec_ready rng in
  exec_window ~traced:false ~interp:true ~seconds:(a.seconds /. 2.0) backend rng ready;
  let untraced = ms (geomean_over apps "op_cpu") in
  Hashtbl.reset samples;
  S.reset ();
  exec_window ~traced:true ~interp:true ~seconds:(a.seconds /. 2.0) backend rng ready;
  let traced = ms (geomean_over apps "op_cpu") in
  (* run_plan minus the direct call of the same op: median per app,
     mean over the apps. *)
  let resilient tag =
    List.fold_left (fun acc n -> acc +. med (tag ^ "resilient_cpu") n) 0.0 apps /. float_of_int (List.length apps)
  in
  let per_app prefix tag = List.map (fun n -> (prefix ^ "." ^ n, ms (med (tag ^ "direct_cpu") n))) apps in
  let groups = List.fold_left (fun acc r -> acc + Pmdp_plan.n_groups (Tiled_exec.ir r.plan)) 0 ready in
  S.write (spans_file a);
  let vs_halide, vs_greedy = schedule_quality backend rng ready in
  let interp_ms = ms (geomean_over apps "interp.op_cpu") in
  emit_result ~env
    ~detail:[ ("native_ms", Json.Float traced); ("interp_ms", Json.Float interp_ms) ]
    (layer_metrics
       ([
          ("plan.groups", float_of_int groups);
          ("kernel.run_ms", ms (geomean_over apps "direct_cpu"));
          ("exec.resilient_ms", ms (resilient ""));
          ("kernel.wall_ms", ms (geomean_over apps "direct_wall"));
          ("core.dp_vs_halide", vs_halide);
          ("core.dp_vs_greedy", vs_greedy);
          ("native_ms", traced);
          ("exec.interp_ms", ms (geomean_over apps "interp.direct_cpu"));
          ("exec.interp_resilient_ms", ms (resilient "interp."));
          ("interp_ms", interp_ms);
          ("trace.overhead_pct", overhead_pct ~traced ~untraced);
        ]
       @ per_app "kernel.run_ms" "" @ per_app "exec.interp_ms" "interp."))

let trace_serve a env rng =
  let _, checks, server = serve_ready a rng in
  let untraced, _, _, _, _ = serve_window ~traced:false ~seconds:(a.seconds /. 2.0) ~checks rng server in
  Hashtbl.reset samples;
  S.reset ();
  let traced, client_cpu, lat, hits, misses = serve_window ~traced:true ~seconds:(a.seconds /. 2.0) ~checks rng server in
  ignore (finish_server server);
  let all key = ms (M.median (Array.concat (List.map (fun n -> samples_of key n) small_apps))) in
  let window =
    [
      ("service.execute_ms", all "service.execute");
      ("service.queue_ms", all "service.queue");
      ("service.outside_ms", all "service.outside");
      ("service.rtt_ms", ms (M.median (samples_of "service.rtt" "")));
      ("service.plan_cache_hits", float_of_int hits);
      ("service.plan_cache_misses", float_of_int misses);
      ("request_p50_ms", ms (M.percentile 50.0 lat));
      ("request_p99_ms", ms (M.percentile 99.0 lat));
      ("server_cpu_ms", ms traced);
      ("client.cpu_ms", ms client_cpu);
      ("trace.overhead_pct", overhead_pct ~traced ~untraced);
    ]
    @ List.map (fun n -> ("request_p50_ms." ^ n, ms (med "op_wall" n))) small_apps
  in
  serve_layer_probes rng;
  S.write (spans_file a);
  emit_result ~env
    ~detail:[ ("requests", Json.Int (Array.length lat)) ]
    (layer_metrics
       (window
       @ [
           ("apps.inputs_ms", all "apps.inputs");
           ("kernel.small_run_ms", all "kernel.small_run");
           ("exec.checksum_ms", all "exec.checksum");
         ]))

let () =
  let a = parse_args () in
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then begin
    prerr_endline "repobench: run from the repository root";
    exit 2
  end;
  Pmdp_verify.Verify.install ();
  Pmdp_baselines.Schedulers.install ();
  mkdir_p ".repobench";
  at_exit (fun () ->
      reap_all ();
      rm_rf run_dir);
  try
    if a.part >= 0 then begin
      let rng = Rng.create ((a.seed * 16) + a.part) in
      let result =
        match a.workload with
        | "compile" -> part_compile a rng
        | "exec" -> part_exec a rng
        | _ -> part_serve a rng
      in
      print_endline (Json.to_string (part_json result))
    end
    else begin
      let env = env_json ~seed:a.seed ~workload:a.workload (Toolchain.probe ()) in
      ignore (toolchain_or_refuse ());
      if not a.trace then run_untraced a env
      else
        let rng = Rng.create (a.seed * 16) in
        match a.workload with
        | "compile" -> trace_compile a env rng
        | "exec" -> trace_exec a env rng
        | _ -> trace_serve a env rng
    end
  with e ->
    prerr_endline ("repobench: aborted: " ^ Printexc.to_string e);
    exit 4
