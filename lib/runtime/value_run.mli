(** The contract shared by every real executor of a compiled program:
    what a processor's channel backend provides ({!chans}), what
    travels on it ({!payload}), and how the per-processor results fold
    into one {!outcome}.

    {!Exec_compiled} runs each processor's program against these
    channels on OCaml 5 domains over the in-process {!Mesh}; the
    [Mimd_dist] runner runs the same worker in forked processes over
    Unix or TCP sockets.  No memory is shared between processors —
    every cross-processor value travels in a message, exactly as on
    the paper's asynchronous shared-nothing MIMD machine.

    Determinism: the value computed for each instance is independent
    of interleaving (messages are matched by instance tag), so the
    final memory is bit-identical to {!Mimd_loop_ir.Interp.run} and to
    {!Mimd_sim.Value_exec.run} whenever code generation is correct —
    the differential tests assert exactly that. *)

type outcome = {
  instance_values : ((int * int) * float) list;
      (** value produced by every (statement, iteration) instance,
          sorted *)
  final : (string * int * float) list;
      (** last-writer value of every written cell, sorted *)
  messages : int;  (** messages actually sent between domains *)
  domains : int;  (** domains spawned = program processors *)
  domain_wall_ns : float array;
      (** per-domain wall-clock from collective start to that domain's
          last instruction *)
  makespan_ns : float;  (** max over [domain_wall_ns] *)
}

val default_channel_capacity : int
(** Per-channel message bound the executors use when
    [?channel_capacity] is omitted.  Exposed so independent auditors (notably
    {!Mimd_check.Validate.program}'s token simulation) and alternative
    channel backends (the socket mesh in [Mimd_dist]) model the same
    bound the real mesh enforces. *)

type payload =
  | Single of float  (** a plain [Send]'s value *)
  | Pack of ((int * int) * float) array
      (** one coalesced/forwarding frame: every (instance, value) pair
          it carries, head instance first ({!Mimd_codegen.Comm_opt}) *)

type chans = {
  send : dst:int -> tag:int * int -> payload -> unit;
      (** Ship the frame for instance [tag] (a pack's head tag) to
          processor [dst]; must block when the link is at capacity. *)
  recv : src:int -> tag:int * int -> payload;
      (** Block until the frame named [tag] arrives from [src]; must
          stash out-of-order arrivals (same discipline as
          {!Mesh.recv_tag}). *)
}
(** What a channel backend provides to one worker. *)

val finalize :
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  lowered:Lower.t ->
  results:(float array * int * float) array ->
  outcome
(** Fold per-processor [(values, sent, wall_ns)] triples — one per
    processor, in processor order, [values] in that processor's
    [lowered] {!Lower.proc_code.computes} order — into an {!outcome}:
    every cell of the final memory takes the value of its last writer
    in sequential (iteration, body position) order, the same result as
    {!Mimd_sim.Value_exec}'s fold.

    Cost: linear in the instances, with no hashing and no sorting.
    Instance values land in a flat array indexed by (iteration, node)
    over the computed iteration span; one scan of it in index order
    (sequential order) leaves each cell's last writer in a dense
    per-array-name cell range (a fixed [@] cell is index 0); a scan of
    the name-sorted arrays emits [final] and a node-major scan of the
    instance array emits [instance_values].
    @raise Invalid_argument when [loop] is not flat, its assignment
    count differs from the program's graph node count, [lowered] is
    for another processor count, [results] does not hold one entry per
    processor, or a processor's [values] length differs from its
    [computes] length. *)

val check_against_sequential :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  loop:Mimd_loop_ir.Ast.loop ->
  iterations:int ->
  outcome ->
  (unit, string) result
(** Bit-exact comparison of the runtime's final memory against the
    sequential interpreter, via {!Mimd_sim.Value_exec.check_final}. *)
