(** Seeded, budgeted local search over per-group tile sizes.

    A move doubles or halves one dimension of one group's tile;
    candidates are deduplicated, scored by a caller-supplied evaluator
    (model cost or measured wall time), and accepted only when they
    improve on the best score — plain hill climbing, deterministic for
    a given seed/budget/evaluator.  Legality lives in the evaluator's
    world ({!Pmdp_core.Schedule_spec.validate}, lowering through
    {!Pmdp_plan.of_spec}, the plan admission gate), not here. *)

type stats = {
  evaluated : int;  (** distinct candidates scored, initial point included *)
  accepted : int;  (** moves that improved the best score *)
  rejected : int;  (** candidates the evaluator refused *)
}

type result = { tiles : int array array; score : float; stats : stats }

val run :
  seed:int ->
  budget:int ->
  init:int array array ->
  evaluate:(int array array -> float option) ->
  result
(** [budget] caps evaluator calls (the initial point counts).  The
    evaluator gets a private copy of the candidate; [None] (or a
    non-finite score) rejects it.
    @raise Invalid_argument if [budget < 1] or the initial point does
    not evaluate. *)

val tiles_of_spec : Pmdp_core.Schedule_spec.t -> int array array

val spec_with_tiles :
  Pmdp_core.Schedule_spec.t -> int array array -> Pmdp_core.Schedule_spec.t
(** Same grouping, new tile arrays (not validated). *)

val tune_spec :
  seed:int ->
  budget:int ->
  evaluate:(Pmdp_core.Schedule_spec.t -> float option) ->
  Pmdp_core.Schedule_spec.t ->
  Pmdp_core.Schedule_spec.t * result
(** Search from a schedule's own tiles; every candidate must lower
    ({!Pmdp_plan.of_spec}, so the registered analyzer too) before the
    evaluator sees it. *)

val model_evaluate : Pmdp_core.Cost_model.config -> Pmdp_core.Schedule_spec.t -> float option
(** Sum of predicted per-group costs under [config] — deterministic
    and execution-free (calibrated configs predict seconds). *)
