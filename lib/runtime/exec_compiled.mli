(** Execution of {!Lower}ed programs on real processors: the runtime's
    one executor.

    Each processor runs its compiled stream in order — computes,
    SENDs and RECEIVEs over the {!Value_run.chans} contract — and the
    per-processor results fold through {!Value_run.finalize}.  The
    per-instruction work is a tight match over an array of int-field
    records: operand reads are slot lookups in an unboxed
    [float array], expression evaluation is a postfix loop over a
    reusable float stack, and message endpoints and slots were bound
    at lower time.  The differential suite and [check --fuzz-exec]
    hold it bit-identical, instance by instance, to the simulator's
    value executor ({!Mimd_sim.Value_exec}) and, on final memory, to
    the sequential interpreter ({!Mimd_loop_ir.Interp}). *)

val worker :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  ?tick:(unit -> unit) ->
  lowered:Lower.t ->
  proc:int ->
  chans:Value_run.chans ->
  unit ->
  float array * int
(** Execute processor [proc]'s lowered stream over any channel backend
    (the domain {!Mesh} or the [Mimd_dist] socket mesh); returns
    (computed values, messages sent), the per-processor input of
    {!Value_run.finalize}.  The value array is the worker's own
    preallocated store, one value per entry of [proc]'s
    {!Lower.proc_code.computes} and in that order; nothing is built
    per instance when the stream ends.  [tick] is called after every
    instruction (the watchdog progress hook). *)

val run :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  ?watchdog:Watchdog.config ->
  ?channel_capacity:int ->
  ?lowered:Lower.t ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Execute [program] on [program.processors] fresh domains connected
    by the in-process {!Mesh}.  [lowered] (a {!Lower.run} of this
    [program] done ahead of time) skips the lowering pass; omitted,
    the program is lowered here.
    @raise Invalid_argument as {!Lower.run} does, or when [lowered]
    was built for a different processor count.
    @raise Watchdog.Runtime_deadlock when execution stalls for the
    watchdog's timeout (default 5s; pass {!Watchdog.off} to wait
    indefinitely). *)
