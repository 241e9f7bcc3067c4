(** Top-level entry points of the static checker.

    There is one analyzer, {!Plan_check}, and it reads a lowered plan
    ({!Pmdp_plan.t}) against the pipeline it claims to execute:
    [check_plan] proves the plan's fused groups and tile sizes are a
    legal overlapped tiling, that every read lands on a correct value,
    that tiles cover every output point exactly once, and that the
    plan's recorded scratch and budget claims hold — re-deriving each
    fact from the DSL access functions rather than trusting lowering.
    [check_pipeline] runs the schedule-independent {!Lint}.  A plan is
    acceptable when it has no [Error]-severity diagnostics
    ({!is_clean}); warnings are advisory.

    Defects no plan can carry — a stage in two groups, an oversized or
    non-positive tile, an unanalyzable group — are refused earlier, by
    {!Pmdp_core.Schedule_spec.validate} or by lowering, with the same
    kind slugs.

    [install] registers [check_plan]'s error verdict as
    {!Pmdp_plan.of_spec}'s post-lowering analyzer, after which every
    lowering — {!Pmdp_exec.Tiled_exec.plan}, {!Pmdp_codegen.C_emit.emit},
    the service's plan cache, [pmdp run]/[bench]/[tune] — refuses a
    plan with an error. *)

val check_pipeline : Pmdp_dsl.Pipeline.t -> Diagnostic.t list

val check_plan :
  ?budget:int -> ?workers:int -> Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> Diagnostic.t list
(** {!Plan_check.check}: the whole-plan analyzer over the serializable
    plan IR, including the static memory-budget audit (with [budget],
    mirroring the service's admission formula for [workers]
    workers). *)

val errors : Diagnostic.t list -> Diagnostic.t list
val is_clean : Diagnostic.t list -> bool

val check_plan_result :
  ?budget:int ->
  ?workers:int ->
  Pmdp_dsl.Pipeline.t ->
  Pmdp_plan.t ->
  (unit, Pmdp_util.Pmdp_error.t) result
(** [check_plan] folded into the execution stack's typed error
    taxonomy: [Ok ()] when there are no error-severity diagnostics,
    otherwise a [Plan_invalid] carrying the first diagnostic and the
    error count — the same shape {!Pmdp_exec.Resilient} records, so
    static and runtime rejection render identically in reports. *)

val install : unit -> unit
(** Register [check_plan_result] with {!Pmdp_plan.set_analyzer}. *)

val uninstall : unit -> unit
(** Clear the hook again: [pmdp check], which runs [check_plan] itself
    to report every diagnostic, and tests. *)
