(** The paper's cost function with integrated tile-size determination
    (Algorithm 2).

    [cost] evaluates a candidate fused group: it computes the best
    tile sizes for the L1 cache, falls back to L2 sizing when the
    overlap at L1 tile sizes exceeds the tile's compute volume, and
    combines locality, parallelism (cleanup-tile load balance),
    relative overlap, and dimension-extent mismatch into a single
    scalar (§4.1):

    {v
    cost = w1 * (live-in + live-out tile bytes) / tile compute volume
         - w2 * ((n_tiles + cores - 1) mod cores)
         + w3 * relative overlap
         + w4 * dimension size mismatch
    v}

    Groups whose dependences cannot be made constant by
    scaling/alignment — or that fuse a reduction with other stages —
    get infinite cost. *)

module Group_analysis := Pmdp_analysis.Group_analysis

type w2_mode =
  | Idle_penalty
      (** default: the equivalent idle-core penalty
          [w2 * ((C - n_tiles mod C) mod C)].  The paper's printed
          term equals this minus a per-group constant [w2*(C-1)];
          summed over groups by the DP, that constant rewards
          splitting unconditionally, so the well-behaved equivalent
          drops it. *)
  | Literal  (** the paper's printed form, kept for the ablation *)

type calibration = {
  cal_machine : string;  (** machine-model name the weights were fitted on *)
  c0 : float;  (** per-group overhead intercept, seconds *)
  c_mem : float;  (** weight of the load-cost locality term (w1's slot) *)
  c_idle : float;  (** cleanup-wave idle-core term (w2's slot) *)
  c_overlap : float;  (** relative-overlap term (w3's slot) *)
  c_mismatch : float;  (** dimension-mismatch term (w4's slot) *)
}
(** Weights fitted to measured per-group wall times
    ({!Pmdp_tune.Calibration}).  Unlike the dimensionless analytic
    weights, a calibrated cost is a wall-time prediction in seconds. *)

type config = {
  machine : Pmdp_machine.Machine.t;
  paper_n_tiles : bool;
      (** when true, the w2 term uses the paper's footprint-ratio tile
          count (Alg. 2 line 21) — kept as an ablation, since that
          count is essentially arbitrary modulo the core count; the
          default (false) uses the actual per-dimension tile-count
          product *)
  w2_mode : w2_mode;
  fuse_reductions : bool;
      (** default false, the paper's PolyMage rule ("do not yet group
          or optimize reductions"); true lets the model consider
          Halide-style fusion of producer-free reductions *)
  calibrated : calibration option;
      (** when set, costs come from the fitted weights (seconds)
          instead of the analytic Table-1 weights; the DP then
          optimizes predicted wall time *)
}

val config_of_machine : ?calib:calibration -> Pmdp_machine.Machine.t -> config
(** The single constructor every CLI/service/bench path goes through:
    default ablation flags, optional calibration.  Use this instead of
    building configs ad hoc so the calibrated path cannot diverge from
    the analytic one. *)

val default_config : Pmdp_machine.Machine.t -> config
(** [config_of_machine] without calibration. *)

val load_cost : float
(** Relative cost of a main-memory access vs an arithmetic operation
    (the paper's LOAD_COST estimate, §6.1); already folded into
    {!features.f_mem}. *)

type features = {
  f_mem : float;
      (** [load_cost * (live-in + live-out tile bytes) / tile compute volume] *)
  f_idle : float;  (** idle cores in the cleanup wave / number of waves *)
  f_overlap : float;  (** redundant compute as a fraction of tile volume *)
  f_mismatch : float;  (** mean CV of member extents across group dims *)
}
(** The model's four regressors for one (group, tile) choice — exactly
    the terms the analytic weights multiply, so calibration is a
    drop-in reweighting of the same model. *)

val features_for_tile : config -> Group_analysis.t -> tile:int array -> features
(** Regressors for an explicit tile (clamped to the group's scaled
    extents).  Uses the actual per-dimension tile-count product for the
    idle term regardless of [paper_n_tiles]. *)

val group_features :
  config -> Pmdp_dsl.Pipeline.t -> stages:int list -> tile:int array -> features option
(** [features_for_tile] for a stage list, [None] when the group does
    not analyze (unfusable). *)

val predicted_cost :
  config -> Pmdp_dsl.Pipeline.t -> (int list * int array) list -> float option
(** Sum of {!predict} over [(stages, tile)] groups, in list order;
    [None] when any group does not analyze.  The one place a
    schedule's predicted cost is summed: the tile search scores
    candidates with it and [pmdp run --profile] prints it per
    group. *)

val analytic_of_features : Pmdp_machine.Machine.t -> features -> float
(** The Table-1 weighting of {!features} (dimensionless cost). *)

val calibrated_of_features : calibration -> features -> float
(** The fitted weighting of {!features} (predicted seconds). *)

val predict : config -> features -> float
(** [calibrated_of_features] when calibrated, else
    [analytic_of_features]. *)

type level = L1 | L2

type verdict = {
  cost : float;  (** [infinity] when the group is unfusable *)
  tile_sizes : int array;  (** scaled-space tile sizes, one per group dim; empty when unfusable *)
  level : level;  (** which cache level the tiles were sized for *)
  analysis : Group_analysis.t option;  (** the underlying analysis, when fusable *)
}

val compute_tile_sizes :
  Group_analysis.t -> tile_footprint_bytes:float -> innermost_tile_size:int -> int array
(** COMPUTETILESIZES of Alg. 2: innermost dimension capped at
    [innermost_tile_size]; remaining dimensions split the allowed
    tile volume proportionally to per-dimension reuse.  Tile sizes
    are not restricted to powers of two. *)

val cost : config -> Pmdp_dsl.Pipeline.t -> int list -> verdict
(** Evaluate one candidate group (list of stage ids). *)

val pp_verdict : Format.formatter -> verdict -> unit
