(** The DSL lint: the schedule-independent half of [pmdp check].

    Schedule-independent checks over the pipeline program itself,
    re-derived without trusting {!Pmdp_dsl.Pipeline.build}'s own
    validation:

    - [unused-stage] (warning): a stage from which no pipeline output
      is reachable — dead computation.
    - [unreachable-output] (warning): an output that depends on no
      pipeline input — it is a constant image.
    - [dim-mismatch]: a load whose coordinate count differs from the
      producer's dimensionality.
    - [unknown-producer]: a load naming neither a stage nor an input.
    - [var-out-of-range]: a coordinate using an iteration variable the
      consuming stage does not have.
    - [const-out-of-domain]: an access to a pipeline input whose index
      interval never meets the input's domain along some dimension.

    Schedule-dependent checks — tile-size smells, fused non-affine
    accesses — are the whole-plan analyzer's ({!Plan_check}). *)

val check_pipeline : Pmdp_dsl.Pipeline.t -> Diagnostic.t list
