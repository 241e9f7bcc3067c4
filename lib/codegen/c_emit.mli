(** C++/OpenMP code generation for a tiled schedule.

    Emits code with the structure of the paper's Fig. 3: fused
    tile-space loops parallelized with [#pragma omp parallel for],
    per-tile scratch buffers for intermediate stages, overlap-expanded
    region loops per member stage, and [#pragma ivdep] innermost
    loops.  The emitted code is self-contained C++ (plus OpenMP) and
    is what PolyMage would hand to icpc/g++; in this repository it
    serves inspection and testing — execution goes through
    {!Pmdp_exec.Tiled_exec}. *)

val scratch_alloc_extents :
  Pmdp_analysis.Group_analysis.t -> member:int -> tile:int array -> int array
(** Per own-dimension extents of the on-stack scratch array the
    emitted code allocates for a member's per-tile region (the
    [float scr_f[N]] declaration uses their product).  Exposed so the
    static bounds checker ({!Pmdp_verify}) can prove every tile's
    region fits the allocation. *)

val emit : Pmdp_core.Schedule_spec.t -> string
(** Full translation unit for the schedule's pipeline, emitted from
    its {!Pmdp_plan.of_spec} lowering (so a registered analyzer vets
    it first).
    @raise Invalid_argument if [Schedule_spec.validate] refuses the
    schedule.
    @raise Pmdp_util.Pmdp_error.Error if lowering or the analyzer
    does. *)

val emit_to_file : Pmdp_core.Schedule_spec.t -> string -> unit
(** Write [emit] output to the given path. *)

val emit_with_harness : Pmdp_core.Schedule_spec.t -> string
(** [emit] plus a [main] that reads every pipeline input from
    [<name>.bin] (raw little-endian float32, row-major), runs the
    pipeline, and writes every pipeline output stage to
    [<name>.out.bin].  Used by the differential test that runs the
    generated C++ against the OCaml executor. *)

(** {2 Native kernels}

    Unlike {!emit} — float32, one whole-pipeline entry point, meant
    for inspection — the kernel emitter produces the translation unit
    the native backend ({!Pmdp_kernel}) actually compiles, loads, and
    executes: double precision throughout (so results can be compared
    bitwise against the double-precision interpreter and
    {!Pmdp_exec.Reference}), one [extern] function per fused group,
    and every buffer passed in from outside rather than held in
    [static] arrays. *)

val kernel_abi_version : int
(** Version of the emitted extern ABI below.  Salted into
    {!Pmdp_plan.kernel_digest}, so an ABI change re-keys every cached
    kernel instead of calling stale objects with the wrong signature. *)

val kernel_symbol : int -> string
(** [kernel_symbol gi] is the exported symbol of group [gi]:
    ["pmdp_kernel_group_<gi>"], with C signature
    [void (double **bufs, int n_threads)]. *)

val kernel_slots : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> string list
(** Buffer-slot order of the [bufs] argument: pipeline inputs in
    declaration order, then live-out stages in plan order
    ([Pmdp_plan.t.liveouts]).  Every group function receives the full
    vector; each indexes only the slots it reads or writes. *)

val emit_kernels : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> string
(** The kernel translation unit for a lowered plan: per-group tile
    loops under [#pragma omp parallel]/[#pragma omp for] (ignored —
    hence serial but still correct — when compiled without OpenMP),
    per-thread heap scratch arenas, and the same clamp/region/copy-out
    structure as {!emit}.  Arithmetic mirrors the interpreter
    ({!Pmdp_exec.Compile}) operation for operation — [double]
    literals via ["%.17g"], [fmin]/[fmax], [Floor] as
    [(double) (int) floor(x)] — so a kernel compiled with
    [-ffp-contract=off] is expected bitwise-equal to
    {!Pmdp_exec.Reference}.
    @raise Invalid_argument when the plan names a different pipeline.
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid]) when a plan
    group does not fit the pipeline. *)
