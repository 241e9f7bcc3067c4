(** The static analyzer: audits a lowered plan IR ({!Pmdp_plan.t})
    against the pipeline it claims to execute, without executing a
    single tile, so plans fresh from lowering and plans loaded from
    disk (or cached, or shipped) are vetted by the same code.  Every
    proof re-derives its facts from the DSL access functions; the IR's
    tables are the claims under test, never the evidence.  All
    diagnostics carry the {!Diagnostic.Plan} pass tag.

    Error kinds:
    - [pipeline-mismatch], [partition], [liveout-list],
      [output-not-liveout], [structure] — the plan does not fit the
      pipeline (stale or tampered IR);
    - [analysis-disagreement], [alignment], [scale-mismatch],
      [dependence-hull], [expansion] — legality of the overlapped
      tiling: exact dependence offsets (residue-sampled) must lie in
      the plan's edge hulls, and the overlap expansions they force
      must be covered;
    - [out-of-domain], [member-order], [region-containment],
      [scratch-overflow] — per-tile bounds: every copied-out point is
      provably correct under the executor's clamped-read semantics,
      and every tile's region fits both executors' scratch;
    - [tile-count], [coverage-gap], [hull] — coverage: the tile grid
      covers the group hull and the per-tile copy-out boxes write every
      live-out point exactly once (so parallel tiles cannot race);
    - [scratch-extent], [scratch-size], [direct-flag] — the IR's
      scratch claims cross-checked against
      {!Pmdp_exec.Tiled_exec.member_scratch_extents} and
      {!Pmdp_codegen.C_emit.scratch_alloc_extents};
    - [dependence], [group-order], [not-materialized] — in-group edges
      point forward in member order, cross-group producers run earlier
      and are materialized;
    - [working-set], [scratch-budget], [over-budget] — static
      memory-budget audit mirroring the service's admission formula
      [working_set + scratch_per_worker * workers <= budget].

    Warning kinds: [degenerate-overlap], [one-wide-innermost],
    [tile-oversized], [dead-scratch]. *)

val check :
  ?budget:int -> ?workers:int -> Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> Diagnostic.t list
(** Run every check.  [budget]/[workers] (default 1) enable the
    admission check; without [budget] only the claim-consistency half
    of the budget audit runs. *)
