(** Compiled-plan cache: the amortization layer of the execution
    service.

    Every [pmdp run] pays the full DSL → analysis → DP-grouping →
    compile cost and exits; a service must not.  The cache memoizes
    the {!Pmdp_core.Schedule_spec.t} and lowered
    {!Pmdp_exec.Tiled_exec.plan} per {!fingerprint} of the
    plan-relevant request bindings — (app name, param bindings,
    scheduler, machine) — so repeat requests skip grouping and
    compilation entirely.

    Concurrency: the cache is shared across domains and threads.  A
    key is compiled exactly once — the first requester claims the slot
    and compiles outside the lock while later requesters for the same
    key block until the slot is ready; they are counted as hits
    (they did not compile).  Failed compiles are cached too (the same
    schedule fails the same way), so the one-compile-per-key
    invariant holds unconditionally.

    External plan sources: {!get} accepts optional [load]/[store]
    hooks so a persistent store (see {!Disk_cache}) can supply a
    previously compiled IR — admitted through the same gate as every
    other path into a slot — and receive freshly compiled ones, and
    {!preload} warm-loads a plan eagerly at startup.

    Observability: hits and misses are recorded as the
    [service.cache.hit] / [service.cache.miss] trace counters
    ({!Pmdp_trace.Trace.count}) and mirrored, with compile/load and
    entry counts, in mutex-protected {!stats}. *)

type entry = {
  fingerprint : string;
  resolved : Pmdp_core.Scheduler.t;
      (** after {!Pmdp_core.Scheduler.for_pipeline} *)
  spec : Pmdp_core.Schedule_spec.t option;
      (** [Some] when the plan was scheduled in this process; [None]
          when the IR was admitted from an external source (the spec
          never crossed the serialization boundary) *)
  plan : Pmdp_exec.Tiled_exec.plan;
  ir : Pmdp_plan.t;  (** the serializable IR the plan was instantiated from *)
  digest : string;  (** {!Pmdp_plan.digest} of [ir] *)
}

type t

val create : unit -> t

val fingerprint :
  ?calib:Pmdp_core.Cost_model.calibration ->
  app:string ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  unit ->
  string
(** Stable hex digest of the plan-relevant bindings.  Identical
    bindings always produce the same fingerprint (within and across
    processes); changing any of app, scale, scheduler, machine name,
    machine core count, or the calibration weights changes it.
    Without [calib] only the bindings above are digested, so
    uncalibrated fingerprints name the same disk-cache envelopes
    whether or not any server runs calibrated. *)

val get :
  t ->
  ?load:(unit -> (Pmdp_plan.t * string) option) ->
  ?store:(ir:Pmdp_plan.t -> digest:string -> unit) ->
  ?quarantine:(unit -> unit) ->
  ?calib:Pmdp_core.Cost_model.calibration ->
  app:Pmdp_apps.Registry.app ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  unit ->
  (entry * [ `Hit | `Miss | `Loaded ], Pmdp_util.Pmdp_error.t) result
(** The memoized schedule + plan for the request's fingerprint,
    compiling it (once, whatever the concurrency) on first use.
    [`Hit] is a ready slot (including waiters that blocked on an
    in-flight build).  The one requester per key that finds the slot
    empty first consults [load] (if given): an IR it returns that
    passes the admission gate becomes the entry with outcome
    [`Loaded] — no compilation; one that fails the gate is counted as
    a load reject, reported to [quarantine] (so the source can move
    the bad envelope aside), and discarded.  Otherwise the requester
    compiles
    ([`Miss]) and, on success, offers the fresh IR to [store].
    [calib] threads fitted cost-model weights into the scheduling
    config ({!Pmdp_core.Cost_model.config_of_machine}) and into the
    fingerprint, so a plan scheduled under one model is never served
    (or loaded) under another.
    Never raises: compile failures surface as the cached typed error.
    A slot only becomes [Ready] after its plan IR passes the digest
    check and the whole-plan static analyzer
    ({!Pmdp_verify.Verify.check_plan_result}) — the gate applies to
    loaded plans exactly as to compiled ones. *)

val preload :
  t ->
  ?calib:Pmdp_core.Cost_model.calibration ->
  app:Pmdp_apps.Registry.app ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  ir:Pmdp_plan.t ->
  digest:string ->
  unit ->
  (unit, Pmdp_util.Pmdp_error.t) result
(** Eagerly admit an externally supplied IR into the slot for these
    bindings, [calib] included as in {!get} (startup warm-load).  The
    full gate applies.  A rejection
    — tampered digest, analyzer failure — leaves the slot {e empty},
    not poisoned: the first real request recompiles from scratch.
    An already-occupied slot is left alone ([Ok ()]).  Does not count
    as a hit or miss; successes count in [loads], rejections in
    [load_rejects]. *)

val load :
  pipeline:Pmdp_dsl.Pipeline.t ->
  ir:Pmdp_plan.t ->
  digest:string ->
  (Pmdp_exec.Tiled_exec.plan, Pmdp_util.Pmdp_error.t) result
(** Admit an externally supplied plan IR (e.g. parsed from a
    {!Pmdp_plan.read} file) through the same gate [get] applies before
    marking a slot [Ready]: the claimed [digest] must equal
    [Pmdp_plan.digest ir] (otherwise the plan was tampered with or
    corrupted) and the whole-plan static analyzer must report no
    errors; only then is the IR instantiated.  Every rejection is a
    typed [Plan_invalid] — nothing is ever executed from a plan that
    fails the gate. *)

type stats = {
  hits : int;  (** requests served from a ready slot (incl. waiters) *)
  misses : int;  (** requests that claimed an empty slot *)
  compiles : int;  (** compilations actually executed *)
  loads : int;  (** entries admitted from an external source *)
  load_rejects : int;  (** external IRs that failed the admission gate *)
  entries : int;  (** ready slots currently cached *)
}

val stats : t -> stats

val clear : t -> unit
(** Drop ready entries (counters are kept).  Slots currently being
    compiled are left alone and land in the cache when done. *)
