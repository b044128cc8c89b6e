(** Stall detection for real parallel executions.

    A simulated execution can detect deadlock instantly (no processor
    can step); a real one cannot — a domain blocked in [Recv] for a
    message nobody will send just waits forever.  The watchdog runs in
    the coordinating domain while the workers execute: it polls a
    global progress counter (waking early when the caller signals
    completion, see {!guard}) and, when no instruction retires anywhere
    for [timeout] seconds, cancels every channel (unblocking all
    waiters) and reports a {!stall} carrying one {!snapshot} per
    domain, which executors surface as {!Runtime_deadlock}. *)

type snapshot = {
  proc : int;  (** scheduled processor = domain index *)
  retired : int;  (** instructions completed *)
  total : int;  (** program length *)
  current : string option;
      (** rendering of the instruction the domain is stuck on, [None]
          once its program is exhausted *)
}

type stall = { timeout : float; snapshots : snapshot list }

exception Runtime_deadlock of stall
(** The structured replacement for hanging: raised by the runtime
    executors when the watchdog fires. *)

type config = { timeout : float; poll_interval : float }

val config : ?timeout:float -> ?poll_interval:float -> unit -> config
(** Defaults: [timeout = 5.0] seconds without global progress,
    [poll_interval = 0.01] seconds between polls.
    @raise Invalid_argument on a non-positive timeout or interval. *)

val default : config

val off : config
(** Infinite timeout: the guard only waits for completion and never
    declares a stall. *)

val guard :
  config:config ->
  wake:Unix.file_descr ->
  finished:(unit -> bool) ->
  progress:(unit -> int) ->
  cancel:(unit -> unit) ->
  snapshots:(unit -> snapshot list) ->
  unit ->
  [ `Finished | `Stalled of stall ]
(** Poll until [finished ()] or until [progress ()] (any monotone
    counter) stops increasing for [timeout] seconds; in the latter
    case call [cancel ()] once and return the [snapshots ()].  Runs in
    the calling domain.

    [wake] is the read end of a pipe the caller writes one byte to
    right after [finished ()] turns true.  Between polls the guard
    [select]s on it with [poll_interval] as the timeout, so it returns
    as soon as the last worker finishes instead of on the next poll
    boundary.  Waking never short-cuts a check: stall detection and
    [cancel] depend only on [finished], [progress] and the clock.  The
    guard neither reads nor closes [wake]. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val describe : stall -> string
(** Multi-line report: one snapshot per domain. *)
