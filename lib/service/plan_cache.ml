module Scheduler = Pmdp_core.Scheduler
module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Tiled_exec = Pmdp_exec.Tiled_exec
module Pmdp_error = Pmdp_util.Pmdp_error
module Trace = Pmdp_trace.Trace

type entry = {
  fingerprint : string;
  resolved : Scheduler.t;
  spec : Pmdp_core.Schedule_spec.t option;
  plan : Tiled_exec.plan;
  ir : Pmdp_plan.t;
  digest : string;
}

(* [Building] is claimed by exactly one requester; everyone else for
   the same key waits on [built] until the slot becomes [Ready]. *)
type slot = Building | Ready of (entry, Pmdp_error.t) result

type t = {
  lock : Mutex.t;
  built : Condition.t;
  table : (string, slot) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable compiles : int;
  mutable loads : int;
  mutable load_rejects : int;
}

type stats = {
  hits : int;
  misses : int;
  compiles : int;
  loads : int;
  load_rejects : int;
  entries : int;
}

let create () =
  {
    lock = Mutex.create ();
    built = Condition.create ();
    table = Hashtbl.create 32;
    hits = 0;
    misses = 0;
    compiles = 0;
    loads = 0;
    load_rejects = 0;
  }

(* The calibration suffix is only appended when weights are loaded,
   so uncalibrated fingerprints keep naming the disk-cache envelopes
   already stored under them. *)
let fingerprint ?calib ~app ~scale ~scheduler ~(machine : Machine.t) () =
  let calib =
    match calib with
    | None -> ""
    | Some (c : Pmdp_core.Cost_model.calibration) ->
        Printf.sprintf "|calib=%h,%h,%h,%h,%h" c.c0 c.c_mem c.c_idle c.c_overlap c.c_mismatch
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "pmdp-plan-v1|app=%s|scale=%d|scheduler=%s|machine=%s|cores=%d%s" app
          scale (Scheduler.to_string scheduler) machine.Machine.name machine.Machine.cores calib))

(* Instantiate a plan IR for [pipeline] with the gate every path into
   a Ready slot shares: the claimed digest must match the IR's content
   (tamper/corruption), and the whole-plan static analyzer must pass
   (soundness) — both before any closure is handed out. *)
let admit_ir ~pipeline ~(ir : Pmdp_plan.t) ~digest:claimed =
  let actual = Pmdp_plan.digest ir in
  if actual <> claimed then
    Error
      (Pmdp_error.Plan_invalid
         {
           context = "plan-cache: digest";
           reason =
             Printf.sprintf "plan claims digest %s but its content digests to %s" claimed actual;
         })
  else
    match Pmdp_verify.Verify.check_plan_result pipeline ir with
    | Error e -> Error e
    | Ok () -> Tiled_exec.instantiate_result pipeline ir

let wrap_raises ~context f =
  try f () with
  | Pmdp_error.Error e -> Error e
  | Invalid_argument reason -> Error (Pmdp_error.Plan_invalid { context; reason })
  | e -> Error (Pmdp_error.Plan_invalid { context; reason = Printexc.to_string e })

let build_pipeline (app : Registry.app) ~scale =
  wrap_raises ~context:("plan-cache: " ^ app.Registry.name) (fun () ->
      Ok (app.Registry.build ~scale))

(* Full scheduling + lowering, with every raising boundary folded into
   the typed taxonomy: a cache must return errors, not leak them. *)
let compile ?calib ~fp ~(app : Registry.app) ~pipeline ~scheduler ~machine () =
  wrap_raises ~context:("plan-cache: " ^ app.Registry.name) (fun () ->
      let resolved = Scheduler.for_pipeline scheduler pipeline in
      let spec =
        Scheduler.schedule resolved
          (Pmdp_core.Cost_model.config_of_machine ?calib machine)
          pipeline
      in
      match Pmdp_plan.of_spec_result spec with
      | Error e -> Error e
      | Ok ir -> (
          let digest = Pmdp_plan.digest ir in
          match admit_ir ~pipeline ~ir ~digest with
          | Error e -> Error e
          | Ok plan -> Ok { fingerprint = fp; resolved; spec = Some spec; plan; ir; digest }))

(* An entry admitted from an externally supplied IR: the gate ran, but
   nothing was scheduled in this process, so there is no spec. *)
let admit_loaded ~fp ~(app : Registry.app) ~pipeline ~scheduler ~ir ~digest =
  wrap_raises ~context:("plan-cache: " ^ app.Registry.name) (fun () ->
      match admit_ir ~pipeline ~ir ~digest with
      | Error e -> Error e
      | Ok plan ->
          let resolved = Scheduler.for_pipeline scheduler pipeline in
          Ok { fingerprint = fp; resolved; spec = None; plan; ir; digest })

let load ~pipeline ~ir ~digest = admit_ir ~pipeline ~ir ~digest

let get t ?load ?store ?quarantine ?calib ~(app : Registry.app) ~scale ~scheduler ~machine () =
  let fp = fingerprint ?calib ~app:app.Registry.name ~scale ~scheduler ~machine () in
  Mutex.lock t.lock;
  let rec obtain () =
    match Hashtbl.find_opt t.table fp with
    | Some (Ready r) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        if Trace.on () then Trace.count "service.cache.hit" 1;
        Result.map (fun e -> (e, `Hit)) r
    | Some Building ->
        Condition.wait t.built t.lock;
        obtain ()
    | None ->
        t.misses <- t.misses + 1;
        Hashtbl.replace t.table fp Building;
        Mutex.unlock t.lock;
        if Trace.on () then Trace.count "service.cache.miss" 1;
        (* Outside the lock: try the external source first (a plan that
           passes the gate skips scheduling entirely), fall back to a
           compile — which is offered back to the source via [store]. *)
        let outcome, rejected, r =
          match build_pipeline app ~scale with
          | Error e -> (`Miss, false, Error e)
          | Ok pipeline -> (
              let loaded, rejected =
                match load with
                | None -> (None, false)
                | Some f -> (
                    match f () with
                    | None -> (None, false)
                    | Some (ir, digest) -> (
                        match admit_loaded ~fp ~app ~pipeline ~scheduler ~ir ~digest with
                        | Ok e -> (Some e, false)
                        | Error _ ->
                            (* The source handed us a bad envelope:
                               tell it (the disk cache quarantines the
                               file) and compile instead. *)
                            Option.iter (fun q -> q ()) quarantine;
                            (None, true)))
              in
              match loaded with
              | Some e -> (`Loaded, rejected, Ok e)
              | None ->
                  let r = compile ?calib ~fp ~app ~pipeline ~scheduler ~machine () in
                  (match (r, store) with
                  | Ok e, Some put -> put ~ir:e.ir ~digest:e.digest
                  | _ -> ());
                  (`Miss, rejected, r))
        in
        Mutex.lock t.lock;
        (match outcome with
        | `Loaded -> t.loads <- t.loads + 1
        | `Miss -> t.compiles <- t.compiles + 1);
        if rejected then t.load_rejects <- t.load_rejects + 1;
        Hashtbl.replace t.table fp (Ready r);
        Condition.broadcast t.built;
        Mutex.unlock t.lock;
        Result.map (fun e -> (e, (outcome :> [ `Hit | `Miss | `Loaded ]))) r
  in
  obtain ()

let preload t ?calib ~(app : Registry.app) ~scale ~scheduler ~machine ~ir ~digest () =
  let fp = fingerprint ?calib ~app:app.Registry.name ~scale ~scheduler ~machine () in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table fp with
  | Some _ ->
      Mutex.unlock t.lock;
      Ok ()
  | None -> (
      Hashtbl.replace t.table fp Building;
      Mutex.unlock t.lock;
      let r =
        match build_pipeline app ~scale with
        | Error e -> Error e
        | Ok pipeline -> admit_loaded ~fp ~app ~pipeline ~scheduler ~ir ~digest
      in
      Mutex.lock t.lock;
      (match r with
      | Ok entry ->
          t.loads <- t.loads + 1;
          Hashtbl.replace t.table fp (Ready (Ok entry))
      | Error _ ->
          (* A rejected warm-load must not poison the slot: leave it
             empty so the first request compiles fresh. *)
          t.load_rejects <- t.load_rejects + 1;
          Hashtbl.remove t.table fp);
      Condition.broadcast t.built;
      Mutex.unlock t.lock;
      Result.map (fun _ -> ()) r)

let stats t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold (fun _ slot acc -> match slot with Ready _ -> acc + 1 | Building -> acc) t.table 0
  in
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      compiles = t.compiles;
      loads = t.loads;
      load_rejects = t.load_rejects;
      entries;
    }
  in
  Mutex.unlock t.lock;
  s

let clear t =
  Mutex.lock t.lock;
  let ready =
    Hashtbl.fold (fun k slot acc -> match slot with Ready _ -> k :: acc | Building -> acc) t.table []
  in
  List.iter (Hashtbl.remove t.table) ready;
  Mutex.unlock t.lock
