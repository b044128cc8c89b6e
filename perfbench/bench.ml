(* Whole-pipeline benchmark: one workload per process, chosen by name.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --mimdloop PATH --out DIR [--perturb] [--commit C] [--source-digest D]

   Each workload runs its focus operation (parallel executions,
   compile batches or service episodes) for S seconds and, a fixed
   number of times, probes of the other workloads' operations, so every
   workload reports every end-to-end metric.
   Every operation is checked; the last line of standard output is one
   JSON object with the counts and the metrics, and the exit code is 1
   when any check failed.  See README.md for the workloads, the metric
   map and the traced run. *)

module Ast = Mimd_loop_ir.Ast
module Interp = Mimd_loop_ir.Interp
module Config = Mimd_machine.Config
module Classify = Mimd_core.Classify
module Full_sched = Mimd_core.Full_sched
module Program = Mimd_codegen.Program
module Comm_opt = Mimd_codegen.Comm_opt
module Lower = Mimd_runtime.Lower
module Value_run = Mimd_runtime.Value_run
module Mesh = Mimd_runtime.Mesh
module Validate = Mimd_check.Validate
module Wire = Mimd_dist.Wire
module Json = Mimd_server.Json
module Prng = Mimd_util.Prng

let span = Spans.span
let now = Mimd_obs.Clock.now_ns
let ms_since t0 = float_of_int (now () - t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* Samples, counts and failures                                         *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let observe key v = Hashtbl.replace samples key (v :: Option.value ~default:[] (Hashtbl.find_opt samples key))
let values key = Option.value ~default:[] (Hashtbl.find_opt samples key)

let attempted = ref 0
let failures : string list ref = ref []

let fail what msg =
  failures := (what ^ ": " ^ msg) :: !failures;
  prerr_endline ("perfbench: FAILED " ^ what ^ ": " ^ msg)

(* Counts must repeat exactly: the first value of a count is its
   reference and any later different value is a failure, not noise. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let count key v =
  match Hashtbl.find_opt counts key with
  | None -> Hashtbl.replace counts key v
  | Some v0 when v0 = v -> ()
  | Some v0 -> fail "determinism" (Printf.sprintf "count %s drifted: %d then %d" key v0 v)

(* Words allocated so far, terminated domains included. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Host speed.  The machines this runs on are shared, and a core's
   speed drifts by up to 2x within seconds as neighbours load the host.
   A fixed kernel of the benchmark's own (hashing, float arithmetic,
   small allocations; no code of the program under test) is timed right
   before and right after every timed operation.  Each of the
   operation's times is scaled by [reference_calib_ms / the median
   kernel time of the calibrations within [window_ns] of the
   operation], i.e. expressed at the speed of a host on which the
   kernel takes [reference_calib_ms].  Scaling every operation by the
   speed of its own moment, rather than the whole run by its median
   speed, keeps a slow second from reaching a tail; taking the median
   of the ten or more calibrations around it, rather than its own two,
   keeps one calibration that a preemption stretched from scaling a
   whole operation down. *)
let reference_calib_ms = 2.0
let window_ns = 1_000_000_000

let kernel_ms () =
  let t0 = Mimd_obs.Clock.now_ns () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for i = 1 to 20_000 do
    Hashtbl.replace h (i land 4095) (float_of_int i);
    acc :=
      !acc
      +. Option.value ~default:1.0 (Hashtbl.find_opt h ((i * 7) land 4095))
      +. Float.sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Mimd_obs.Clock.now_ns () - t0) /. 1e6

(* Every calibration: when it ended (ns) and its kernel time (ms), the
   median of three timings. *)
let calibrations : (int * float) list ref = ref []

let calibrate () =
  let a = [| kernel_ms (); kernel_ms (); kernel_ms () |] in
  Array.sort compare a;
  observe "calib_ms" a.(1);
  calibrations := (now (), a.(1)) :: !calibrations

(* Before every timed operation: start from a collected heap, so one
   operation's garbage is not charged to the next, and time the
   kernel.  Right after it: [calibrate]. *)
let settle () =
  Gc.full_major ();
  calibrate ()

(* Times of operations: the raw time goes to [samples] under [key], and
   here with the moment [(t0, t1)] its operation ran. *)
let moments : (string, ((int * int) * float) list) Hashtbl.t = Hashtbl.create 16

let observe_time key ~at v =
  observe key v;
  Hashtbl.replace moments key ((at, v) :: Option.value ~default:[] (Hashtbl.find_opt moments key))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let quantile a q =
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = function [] -> nan | xs -> quantile (sorted xs) 0.5

(* The factor that brings the times of an operation that ran over
   [(t0, t1)] to the reference host speed; kept per moment, since all
   the round trips of an episode share one. *)
let factors : (int * int, float) Hashtbl.t = Hashtbl.create 256

let host_factor ((t0, t1) as at) =
  match Hashtbl.find_opt factors at with
  | Some f -> f
  | None ->
    let near =
      List.filter_map
        (fun (t, c) -> if t >= t0 - window_ns && t <= t1 + window_ns then Some c else None)
        !calibrations
    in
    let f = reference_calib_ms /. median near in
    Hashtbl.replace factors at f;
    f

(* The series [key] at the reference host speed. *)
let scaled_values key =
  List.map (fun (at, v) -> v *. host_factor at) (Option.value ~default:[] (Hashtbl.find_opt moments key))

(* The highest whole percentile with at least ten samples beyond it:
   p99 from 1000 samples on, lower below that (p98 for 576 samples, p37
   for 16), by nearest rank.  Whole percentiles, because the order
   statistic with exactly ten larger samples would climb towards the
   maximum as a faster program fits more samples into a run, and read
   worse for it.  Returns the value, the percentile, the sample count
   and the number of samples beyond. *)
let tail = function
  | [] -> (nan, 0, 0, 0)
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    let pct = max 0 (min 99 (int_of_float (Float.floor (100.0 -. (1000.0 /. float_of_int n))))) in
    let i = max 0 ((((pct * n) + 99) / 100) - 1) in
    (a.(i), pct, n, n - i - 1)

(* ------------------------------------------------------------------ *)
(* Options                                                              *)

type env = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mimdloop : string;
  out_dir : string;
  perturb : bool;
  commit : string;
  source_digest : string;
  rng : Prng.t;
  init : string -> int -> float;
}

(* Initial memory drawn from the seed: the interpreter's own recipe at
   a seed-shifted index, so values stay in [1, 2). *)
let seeded_init seed a i = Interp.init a (i + (seed * 1_000_003))

(* ------------------------------------------------------------------ *)
(* The compile pipeline, one span per layer                             *)

type job = { label : string; src : string; procs : int; k : int; n : int; comm : bool }

(* What an execution needs.  The ewf kit keeps only this live, so that
   during a timed run the benchmark's heap holds no more than the run
   itself needs. *)
type runnable = {
  job : job;
  flat : Ast.loop;
  program : Program.t;  (** the comm-optimised program for comm jobs *)
  lowered : Lower.t;
}

type compiled = {
  exe : runnable;
  machine : Config.t;
  prepared : Full_sched.prepared;
  full : Full_sched.t;
  plain : Program.t;
  fingerprint : string;
}

exception Rejected of string

let compile job =
  let flat, graph =
    span "loop_ir.parse" (fun () ->
        let loop = Mimd_loop_ir.Parser.parse job.src in
        let flat = if Ast.is_flat loop then loop else Mimd_loop_ir.If_convert.run loop in
        (flat, (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph))
  in
  let machine = Config.make ~processors:job.procs ~comm_estimate:job.k in
  let prepared = span "core.prepare" (fun () -> Full_sched.prepare ~graph ()) in
  let full =
    span "core.finish" (fun () -> Full_sched.finish ~prepared ~machine ~iterations:job.n ())
  in
  span "check.validate_schedule" (fun () ->
      match Validate.schedule_validator full.Full_sched.schedule with
      | Ok () -> ()
      | Error e -> raise (Rejected ("schedule: " ^ e)));
  let plain =
    span "codegen.from_schedule" (fun () ->
        Mimd_codegen.From_schedule.run ~validate:false full.Full_sched.schedule)
  in
  span "check.validate_program" (fun () ->
      if not (Validate.ok (Validate.program plain)) then
        raise (Rejected "program: the validator reported issues"));
  let program =
    if job.comm then span "codegen.comm_opt" (fun () -> fst (Comm_opt.run ~window:4 plain))
    else plain
  in
  let lowered = span "runtime.lower" (fun () -> Lower.run ~loop:flat ~program ()) in
  let fingerprint = Full_sched.output_fingerprint full ^ "/" ^ Comm_opt.fingerprint program in
  { exe = { job; flat; program; lowered }; machine; prepared; full; plain; fingerprint }

(* The paper's pattern search alone, on the Cyclic subgraph: a sub-step
   of [Full_sched.finish], so it is timed separately and only in the
   traced run. *)
let cyclic_solve c =
  let cls = c.prepared.Full_sched.cls in
  if not (Classify.is_doall cls) then
    span "core.cyclic_solve" (fun () ->
        let g, _, _ = Classify.cyclic_subgraph c.prepared.Full_sched.unwound cls in
        ignore (Mimd_core.Cyclic_sched.solve ~graph:g ~machine:c.machine ()))

let record_counts prefix cs =
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
  count (prefix ^ "codegen.instructions") (sum (fun c -> Program.instruction_count c.plain));
  count (prefix ^ "codegen.messages") (sum (fun c -> Comm_opt.messages c.plain));
  count (prefix ^ "codegen.messages_opt")
    (sum (fun c -> if c.exe.job.comm then Comm_opt.messages c.exe.program else 0));
  count (prefix ^ "runtime.slots")
    (sum (fun c ->
         Array.fold_left (fun acc p -> acc + p.Lower.slot_count) 0 c.exe.lowered.Lower.procs));
  count (prefix ^ "core.pattern_height")
    (sum (fun c ->
         match c.full.Full_sched.pattern with
         | Some p -> p.Mimd_core.Pattern.height
         | None -> 0))

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

type transport = Domains | Sockets

let layer_of = function Domains -> "runtime" | Sockets -> "dist"

let execute transport ~init r =
  match transport with
  | Domains ->
    Mimd_runtime.Exec_compiled.run ~init ~lowered:r.lowered ~loop:r.flat ~program:r.program ()
  | Sockets ->
    Mimd_dist.Runner.run ~init ~exec:(`Compiled_form r.lowered) ~loop:r.flat
      ~program:r.program ()

(* One execution, timed from the launch call to the finalized outcome,
   then checked bit for bit against the sequential interpreter outside
   the timing.  [Some (ms, (t0, t1))] on success; a failure is
   counted. *)
let timed_run env ~transport ~label r =
  incr attempted;
  settle ();
  let layer = layer_of transport in
  let run_init = if env.perturb then fun a i -> env.init a i +. 1.0 else env.init in
  let t0 = now () in
  match span (layer ^ ".run") (fun () -> execute transport ~init:run_init r) with
  | exception e -> fail label (Printexc.to_string e); None
  | o -> (
    let t1 = now () in
    calibrate ();
    let ms = float_of_int (t1 - t0) /. 1e6 in
    match
      span "check.seq_check" (fun () ->
          Value_run.check_against_sequential ~init:env.init ~loop:r.flat
            ~iterations:r.job.n o)
    with
    | Error e -> fail label ("mismatch vs sequential: " ^ e); None
    | Ok () ->
      count (label ^ ".runtime.messages") o.Value_run.messages;
      if r.job.procs > 1 then begin
        let makespan = o.Value_run.makespan_ns /. 1e6 in
        let walls = Array.to_list o.Value_run.domain_wall_ns in
        observe (layer ^ ".makespan_ms") makespan;
        observe (layer ^ ".finalize_ms") (ms -. makespan);
        observe (layer ^ ".pe_skew_ms")
          ((List.fold_left max neg_infinity walls -. List.fold_left min infinity walls) /. 1e6)
      end;
      Some (ms, (t0, t1)))

(* The ewf kit: ewf at n=2000, k=2, compiled for p=2 and for one PE. *)
let ewf_job procs =
  { label = Printf.sprintf "ewf-p%d" procs; src = Mimd_workloads.Elliptic.source; procs;
    k = 2; n = 2000; comm = false }

(* Set-up: compile both programs from source to lowered form and warm
   each with one checked run, [setups] times over; the last kit is
   kept. *)
let ewf_kit env ~transport ~setups ~setup_key =
  let kit = ref None in
  for _ = 1 to setups do
    settle ();
    let t0 = now () in
    match
      span "setup" (fun () ->
          let c2 = compile (ewf_job 2) and c1 = compile (ewf_job 1) in
          record_counts "ewf." [ c2; c1 ];
          ignore (timed_run env ~transport ~label:"ewf-p2" c2.exe);
          ignore (timed_run env ~transport ~label:"ewf-p1" c1.exe);
          (c2, c1))
    with
    | exception e ->
      incr attempted;
      fail "ewf compile" (Printexc.to_string e)
    | c2, c1 ->
      let t1 = now () in
      calibrate ();
      observe_time setup_key ~at:(t0, t1) (float_of_int (t1 - t0) /. 1e9);
      if Spans.enabled () then span "core.solve" (fun () -> cyclic_solve c2; cyclic_solve c1);
      kit := Some (c2.exe, c1.exe)
  done;
  !kit

(* One repetition: a p=2 run, a p=1 run and the sequential
   interpreter, in an order shuffled by the seed. *)
let exec_rep env ~transport (c2, c1) =
  let ops = [| `P2; `P1; `Seq |] in
  Prng.shuffle env.rng ops;
  let a0 = alloc_words () in
  span "exec.rep" (fun () ->
      Array.iter
        (function
          | `P2 ->
            Option.iter
              (fun (ms, at) -> observe_time "run_ms" ~at ms)
              (timed_run env ~transport ~label:"ewf-p2" c2)
          | `P1 ->
            Option.iter
              (fun (ms, at) -> observe_time "p1_run_ms" ~at ms)
              (timed_run env ~transport ~label:"ewf-p1" c1)
          | `Seq ->
            incr attempted;
            settle ();
            let t0 = now () in
            ignore
              (span "loop_ir.interp" (fun () ->
                   Interp.run ~init:env.init c2.flat ~iterations:c2.job.n));
            let t1 = now () in
            calibrate ();
            observe_time "seq_ms" ~at:(t0, t1) (float_of_int (t1 - t0) /. 1e6))
        ops);
  observe "rep.alloc_mw" ((alloc_words () -. a0) /. 1e6)

(* compile_ms outside compile-batch: the kit compiled from source. *)
let kit_compile () =
  settle ();
  incr attempted;
  let t0 = now () in
  match span "kit.compile" (fun () -> (compile (ewf_job 2), compile (ewf_job 1))) with
  | exception e -> fail "ewf compile" (Printexc.to_string e)
  | c2, c1 ->
    let t1 = now () in
    calibrate ();
    observe_time "compile_ms" ~at:(t0, t1) (float_of_int (t1 - t0) /. 1e6);
    record_counts "ewf." [ c2; c1 ]

(* ------------------------------------------------------------------ *)
(* Compile batch                                                        *)

let batch_jobs =
  let ewf = Mimd_workloads.Elliptic.source and fig1 = Mimd_workloads.Fig1.source in
  [
    { label = "ewf-n1000"; src = ewf; procs = 2; k = 2; n = 1000; comm = false };
    { label = "fig1-n1000"; src = fig1; procs = 2; k = 2; n = 1000; comm = false };
    { label = "ewf-n48-comm"; src = ewf; procs = 2; k = 2; n = 48; comm = true };
    { label = "fig1-n96-comm"; src = fig1; procs = 2; k = 2; n = 96; comm = true };
  ]

let same_final a b =
  List.equal
    (fun (x, i, v) (y, j, w) ->
      String.equal x y && i = j && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w))
    a b

(* Set-up: the reference compile of the batch, each program executed
   once on domains and checked; comm-opt jobs also run their
   unoptimised program, which must give the same final memory. *)
let batch_setup env =
  settle ();
  let t0 = now () in
  let reference =
    span "setup" (fun () ->
        let cs = List.map compile batch_jobs in
        record_counts "batch." cs;
        List.iter
          (fun c ->
            match timed_run env ~transport:Domains ~label:c.exe.job.label c.exe with
            | None -> ()
            | Some _ when not c.exe.job.comm -> ()
            | Some _ -> (
              incr attempted;
              let run p =
                Mimd_runtime.Exec_compiled.run ~init:env.init ~loop:c.exe.flat ~program:p ()
              in
              match (run c.plain, run c.exe.program) with
              | exception e -> fail (c.exe.job.label ^ " comm-opt") (Printexc.to_string e)
              | a, b ->
                if not (same_final a.Value_run.final b.Value_run.final) then
                  fail (c.exe.job.label ^ " comm-opt") "optimised and unoptimised finals differ"))
          cs;
        List.map (fun c -> (c.exe.job.label, c.fingerprint)) cs)
  in
  let t1 = now () in
  calibrate ();
  observe_time "setup_s" ~at:(t0, t1) (float_of_int (t1 - t0) /. 1e9);
  reference

(* One batch, in an order shuffled by the seed, checked against the
   set-up compile's fingerprints outside the timing. *)
let batch_sample env ~reference =
  let jobs = Array.of_list batch_jobs in
  Prng.shuffle env.rng jobs;
  incr attempted;
  settle ();
  let a0 = alloc_words () in
  let t0 = now () in
  match span "compile.batch" (fun () -> Array.map compile jobs) with
  | exception e -> fail "compile batch" (Printexc.to_string e)
  | cs ->
    let t1 = now () in
    calibrate ();
    observe "batch.alloc_mw" ((alloc_words () -. a0) /. 1e6);
    let wrong =
      Array.to_list cs
      |> List.filter (fun c -> List.assoc_opt c.exe.job.label reference <> Some c.fingerprint)
    in
    if wrong <> [] then
      fail "compile batch"
        ("fingerprint differs from the set-up compile for "
        ^ String.concat ", " (List.map (fun c -> c.exe.job.label) wrong))
    else begin
      observe_time "compile_ms" ~at:(t0, t1) (float_of_int (t1 - t0) /. 1e6);
      record_counts "batch." (Array.to_list cs);
      if Spans.enabled () then span "core.solve" (fun () -> Array.iter cyclic_solve cs)
    end

(* ------------------------------------------------------------------ *)
(* The compile service                                                   *)

type server = { pid : int; to_srv : out_channel; from_srv : in_channel }

let live_servers = ref []

let start_server env =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process env.mimdloop
      [| env.mimdloop; "serve"; "--stdio"; "--no-disk-cache"; "--jobs"; "1" |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  live_servers := pid :: !live_servers;
  { pid; to_srv = Unix.out_channel_of_descr in_w; from_srv = Unix.in_channel_of_descr out_r }

(* Send one request line and wait for its reply line. *)
let exchange srv line =
  output_string srv.to_srv line;
  output_char srv.to_srv '\n';
  flush srv.to_srv;
  input_line srv.from_srv

let roundtrip srv line = Json.parse (exchange srv line)

let stop_server srv =
  (try ignore (roundtrip srv {|{"id":"bye","op":"shutdown"}|}) with _ -> ());
  close_out_noerr srv.to_srv;
  close_in_noerr srv.from_srv;
  ignore (Unix.waitpid [] srv.pid);
  live_servers := List.filter (( <> ) srv.pid) !live_servers

let kill_servers () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_servers

let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
    |> Option.value ~default:nan

let rec field path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (field rest)

let num path j =
  match field path j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> nan

(* The 96 request keys, every corpus loop x processors {2,3} x k
   {1,2,4} x iterations {100,400}, in 16 strata (loop, iterations) of
   six keys each; each stratum's keys in an order drawn with the
   seed. *)
let service_strata rng =
  let dir = Filename.concat "examples" "loops" in
  let keys =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
    |> List.sort compare
    |> List.concat_map (fun f ->
           let src = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
           List.concat_map
             (fun p ->
               List.concat_map (fun k -> List.map (fun n -> (f, src, p, k, n)) [ 100; 400 ]) [ 1; 2; 4 ])
             [ 2; 3 ])
  in
  List.map (fun (f, _, _, _, n) -> (f, n)) keys
  |> List.sort_uniq compare
  |> List.map (fun (f, n) ->
         let a = Array.of_list (List.filter (fun (f', _, _, _, n') -> f' = f && n' = n) keys) in
         Prng.shuffle rng a;
         a)

(* Episode [e]'s traffic.  It takes from every stratum the key at [e]
   mod 6 of its seeded order: 16 keys, so each episode carries the same
   mix of cheap and costly misses, and every six episodes request every
   key once, so the misses of a run are the same keys whatever the
   seed.  Each key is requested three times in a seeded order; its first
   request is a miss and the other two are memory hits, so two thirds
   of requests repeat an earlier key.  Short episodes mean many fresh
   servers per run, which averages out where the scheduler happens to
   place each server's threads. *)
let traffic rng strata ~episode =
  let chosen = List.map (fun a -> a.(episode mod Array.length a)) strata in
  let order = Array.of_list (List.concat_map (fun key -> [ key; key; key ]) chosen) in
  Prng.shuffle rng order;
  let seen = Hashtbl.create 16 in
  Array.map
    (fun key ->
      if Hashtbl.mem seen key then (key, "memory")
      else begin
        Hashtbl.replace seen key ();
        (key, "computed")
      end)
    order

(* Reply fields that must agree between a miss and every later hit of
   the same key, in this episode and in every other. *)
let reply_identity j =
  String.concat ","
    (List.map
       (fun k -> match Json.member k j with Some v -> Json.to_string v | None -> "?")
       [ "makespan"; "processors"; "pattern"; "folded"; "sequential" ])

let identities : (string, string) Hashtbl.t = Hashtbl.create 128

(* Check one reply against the tier its position implies and against
   every earlier reply for the same key. *)
let check_reply ((file, _, p, k, n), tier) line =
  let key = Printf.sprintf "%s p=%d k=%d n=%d" file p k n in
  match Json.parse line with
  | exception Json.Parse_error e -> Error (key ^ ": unparsable reply: " ^ e)
  | reply -> (
    let got_tier = Option.bind (Json.member "tier" reply) Json.to_string_opt in
    if field [ "ok" ] reply <> Some (Json.Bool true) then Error (key ^ ": " ^ line)
    else if got_tier <> Some tier then
      Error
        (Printf.sprintf "%s: tier %s, expected %s" key (Option.value ~default:"?" got_tier) tier)
    else
      let id = reply_identity reply in
      match Hashtbl.find_opt identities key with
      | Some id0 when id0 <> id -> Error (key ^ ": reply differs from its first compile")
      | _ ->
        Hashtbl.replace identities key id;
        Ok ())

let episodes_run = ref 0

(* One closed-loop episode against a fresh server.  Requests are built
   before and replies checked after the loop, so a round trip times
   only the exchange on the pipe.  The server start and every round
   trip are scaled by the host speed around the whole episode. *)
let episode env ~strata ~setup_key =
  settle ();
  let t0 = now () in
  let srv = start_server env in
  let ready = roundtrip srv {|{"id":"ready","op":"ping"}|} in
  if field [ "pong" ] ready <> Some (Json.Bool true) then fail "serve" "no pong from a fresh server";
  let start_s = ms_since t0 /. 1e3 in
  let reqs = traffic env.rng strata ~episode:!episodes_run in
  incr episodes_run;
  let lines =
    Array.mapi
      (fun i ((_, src, p, k, n), _) ->
        Printf.sprintf
          {|{"id":%d,"op":"compile","loop":"%s","processors":%d,"k":%d,"iterations":%d}|} i
          (Json.escape src) p k n)
      reqs
  in
  let replies = Array.make (Array.length reqs) "" and ms = Array.make (Array.length reqs) nan in
  let a0 = alloc_words () in
  let t_loop = now () in
  (try
     span "serve.episode" (fun () ->
         Array.iteri
           (fun i line ->
             let t = now () in
             replies.(i) <- span ~req:i "server.request" (fun () -> exchange srv line);
             ms.(i) <- ms_since t)
           lines)
   with e -> fail "serve" (Printexc.to_string e));
  let t1 = now () in
  calibrate ();
  let at = (t0, t1) in
  observe_time setup_key ~at start_s;
  observe_time "serve_loop_s" ~at (float_of_int (t1 - t_loop) /. 1e9);
  observe "episode.alloc_mw" ((alloc_words () -. a0) /. 1e6);
  observe "serve_requests" (float_of_int (Array.length reqs));
  Array.iteri
    (fun i req ->
      incr attempted;
      if replies.(i) = "" then fail "serve" "no reply"
      else
        match check_reply req replies.(i) with
        | Error e -> fail "serve" e
        | Ok () ->
          observe_time "serve_ms" ~at ms.(i);
          observe (if snd req = "memory" then "server.hit_ms" else "server.miss_ms") ms.(i))
    reqs;
  (match roundtrip srv {|{"id":"stats","op":"stats"}|} with
  | exception e -> fail "serve stats" (Printexc.to_string e)
  | st ->
    let s = Option.value ~default:Json.Null (Json.member "stats" st) in
    let requests = num [ "requests" ] s in
    observe "server.hit_ratio" (num [ "memory_cache"; "hits" ] s /. requests);
    count "server.misses" (int_of_float (num [ "memory_cache"; "misses" ] s));
    List.iter
      (fun stage ->
        observe
          (Printf.sprintf "server.stage.%s_ms_p50" stage)
          (num [ "latency"; stage; "p50_ms" ] s))
      [ "parse"; "schedule"; "lower"; "total" ]);
  observe "server_rss_mb" (vm_hwm_mb srv.pid);
  stop_server srv

(* ------------------------------------------------------------------ *)
(* Transport round trips (traced run only)                              *)

(* Ping-pong between two domains over the mesh the runtime uses. *)
let mesh_rtt () =
  let trips = 200 and batches = 20 in
  let mesh = Mesh.create ~procs:2 ~capacity:16 in
  let echo =
    Domain.spawn (fun () ->
        let st = Mesh.stash mesh in
        for i = 1 to trips * batches do
          let v = Mesh.recv_tag mesh st ~src:0 ~dst:1 ~tag:(0, i) in
          Mesh.send mesh ~src:1 ~dst:0 ~tag:(0, i) v
        done)
  in
  let st = Mesh.stash mesh in
  for b = 0 to batches - 1 do
    let t0 = now () in
    for j = 1 to trips do
      let i = (b * trips) + j in
      Mesh.send mesh ~src:0 ~dst:1 ~tag:(0, i) i;
      ignore (Mesh.recv_tag mesh st ~src:1 ~dst:0 ~tag:(0, i))
    done;
    observe "runtime.mesh_rtt_ns" (float_of_int (now () - t0) /. float_of_int trips)
  done;
  Domain.join echo

(* Frame round trips over a socketpair to a forked echo process; needs
   a process that has spawned no domain. *)
let frame_rtt () =
  let trips = 200 and batches = 20 in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    (try
       while true do
         let (v : int) = Wire.read_exn b in
         Wire.write b v
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close b;
    for _ = 1 to batches do
      let t0 = now () in
      for i = 1 to trips do
        Wire.write a i;
        ignore (Wire.read_exn a : int)
      done;
      observe "dist.frame_rtt_ns" (float_of_int (now () - t0) /. float_of_int trips)
    done;
    Unix.close a;
    ignore (Unix.waitpid [] pid)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* A workload's focus operation: its root span, its latency series and
   its allocation series. *)
let focus = function
  | "exec-ewf-domains" | "exec-ewf-sockets" -> ("exec.rep", "run_ms", "rep.alloc_mw")
  | "compile-batch" -> ("compile.batch", "compile_ms", "batch.alloc_mw")
  | _ -> ("serve.episode", "serve_ms", "episode.alloc_mw")

(* The timed phase runs the workload's focus operation over and over
   until the budget is spent, and each probe [(count, probe)] exactly
   [count] times, at evenly spaced moments of the budget.  A probe
   series thus has the same size on every run, whatever the focus
   operation costs, and a slow drift of the host touches focus and
   probes alike.  In the traced run the first half runs with spans off
   and the second with spans on, each with half the probes; the
   difference in the focus median is the tracing overhead. *)
let timed_phase env ~focus:run_focus ~probes =
  let run_for s probes =
    let due =
      List.concat_map
        (fun (count, probe) ->
          List.init count (fun i -> ((float_of_int i +. 0.5) /. float_of_int count, probe)))
        probes
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      |> Array.of_list
    in
    let t0 = now () and budget = s *. 1e9 in
    let elapsed () = float_of_int (now () - t0) /. budget in
    let next = ref 0 in
    let run_due () =
      snd due.(!next) ();
      incr next
    in
    while elapsed () < 1.0 do
      if !next < Array.length due && elapsed () >= fst due.(!next) then run_due ()
      else run_focus ()
    done;
    while !next < Array.length due do
      run_due ()
    done
  in
  if not env.trace then run_for env.seconds probes
  else begin
    let _, focus, _ = focus env.workload in
    let half = List.map (fun (count, probe) -> ((count + 1) / 2, probe)) probes in
    Spans.set_enabled false;
    run_for (env.seconds /. 2.0) half;
    let untraced = values focus in
    Spans.set_enabled true;
    run_for (env.seconds /. 2.0) half;
    let all = values focus in
    let traced = List.filteri (fun i _ -> i < List.length all - List.length untraced) all in
    observe "trace.overhead_ms" (median traced -. median untraced)
  end

let run_workload env =
  let strata = service_strata env.rng in
  let serve_probe () = episode env ~strata ~setup_key:"probe_setup_s" in
  let exec_probe () =
    match ewf_kit env ~transport:Domains ~setups:1 ~setup_key:"probe_setup_s" with
    | None -> fun () -> ()
    | Some kit -> fun () -> exec_rep env ~transport:Domains kit
  in
  match env.workload with
  | ("exec-ewf-domains" | "exec-ewf-sockets") as w ->
    let transport = if w = "exec-ewf-domains" then Domains else Sockets in
    (* Frame round trips fork, so they come before anything that might
       spawn a domain. *)
    if env.trace && transport = Sockets then frame_rtt ();
    if env.trace && transport = Domains then mesh_rtt ();
    Option.iter
      (fun kit ->
        timed_phase env
          ~focus:(fun () -> exec_rep env ~transport kit)
          ~probes:[ (8, kit_compile); (24, serve_probe) ])
      (ewf_kit env ~transport ~setups:3 ~setup_key:"setup_s")
  | "compile-batch" ->
    let reference = ref [] in
    for _ = 1 to 3 do
      reference := batch_setup env
    done;
    timed_phase env
      ~focus:(fun () -> batch_sample env ~reference:!reference)
      ~probes:[ (16, exec_probe ()); (24, serve_probe) ]
  | "serve-mix" ->
    timed_phase env
      ~focus:(fun () -> episode env ~strata ~setup_key:"setup_s")
      ~probes:[ (16, exec_probe ()); (8, kit_compile) ]
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* ------------------------------------------------------------------ *)
(* Report                                                               *)

let workloads = [ "exec-ewf-domains"; "exec-ewf-sockets"; "compile-batch"; "serve-mix" ]

(* The factor that brings this run's per-layer times to the reference
   host speed: one factor for the whole run, from its median kernel
   time.  The end-to-end times are scaled per operation instead. *)
let host_scale () =
  match values "calib_ms" with [] -> 1.0 | vs -> reference_calib_ms /. median vs

(* The host-scaled figures, or with [~raw:true] the wall-clock ones. *)
let end_to_end ~raw env =
  let times key = if raw then values key else scaled_values key in
  let tail_of key = let v, _, _, _ = tail (times key) in v in
  let serve_rps =
    List.fold_left ( +. ) 0.0 (values "serve_requests")
    /. List.fold_left ( +. ) 0.0 (times "serve_loop_s")
  in
  let rss =
    median (values (if env.workload = "serve-mix" then "server_rss_mb" else "own_rss_mb"))
  in
  [
    ("run_ms_p50", "ms", median (times "run_ms"));
    ("run_ms_tail", "ms", tail_of "run_ms");
    ("p1_run_ms_p50", "ms", median (times "p1_run_ms"));
    ("compile_ms_p50", "ms", median (times "compile_ms"));
    ("serve_ms_p50", "ms", median (times "serve_ms"));
    ("serve_ms_tail", "ms", tail_of "serve_ms");
    ("serve_rps", "req/s", serve_rps);
    ("peak_rss_mb", "MB", rss);
    ("setup_s", "s", median (times "setup_s"));
  ]

let error_frac () =
  float_of_int (List.length !failures) /. float_of_int (max 1 !attempted)

let per_layer ~scale env =
  let spans = Spans.all () in
  (* A layer's time per focus sample (a repetition, a batch, an
     episode); a layer that never runs inside one is timed per root
     span it does run in (set-up, probes). *)
  let root_names = Hashtbl.create 64 in
  List.iter (fun s -> if s.Spans.parent < 0 then Hashtbl.replace root_names s.Spans.id s.Spans.name) spans;
  let focus, _, alloc = focus env.workload in
  let span_ms name =
    let in_focus =
      Spans.self_per_root ~keep:(fun r -> Hashtbl.find_opt root_names r = Some focus) spans name
    in
    match if in_focus <> [] then in_focus else Spans.self_per_root spans name with
    | [] -> 0.0
    | per_root -> median (List.map (fun ns -> float_of_int ns /. 1e6) per_root)
  in
  let obs key = match values key with [] -> 0.0 | vs -> median vs in
  let cnt key = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts key)) in
  let prefix = if env.workload = "compile-batch" then "batch." else "ewf." in
  let runtime_messages =
    Option.value ~default:0 (Hashtbl.find_opt counts "ewf-p2.runtime.messages")
  in
  let ms = "ms" and ns = "ns" and n = "count" in
  List.map (fun (name, unit, v) -> (name, unit, if unit = ms || unit = ns then scale *. v else v))
  [
    ("loop_ir.parse_ms", ms, span_ms "loop_ir.parse");
    ("loop_ir.interp_ms", ms, span_ms "loop_ir.interp");
    ("core.prepare_ms", ms, span_ms "core.prepare");
    ("core.cyclic_solve_ms", ms, span_ms "core.cyclic_solve");
    ("core.finish_ms", ms, span_ms "core.finish");
    ("codegen.from_schedule_ms", ms, span_ms "codegen.from_schedule");
    ("check.validate_schedule_ms", ms, span_ms "check.validate_schedule");
    ("check.validate_program_ms", ms, span_ms "check.validate_program");
    ("codegen.comm_opt_ms", ms, span_ms "codegen.comm_opt");
    ("runtime.lower_ms", ms, span_ms "runtime.lower");
    ("runtime.makespan_ms", ms, obs "runtime.makespan_ms");
    ("runtime.finalize_ms", ms, obs "runtime.finalize_ms");
    ("runtime.pe_skew_ms", ms, obs "runtime.pe_skew_ms");
    ("runtime.mesh_rtt_ns", ns, obs "runtime.mesh_rtt_ns");
    ("dist.makespan_ms", ms, obs "dist.makespan_ms");
    ("dist.finalize_ms", ms, obs "dist.finalize_ms");
    ("dist.frame_rtt_ns", ns, obs "dist.frame_rtt_ns");
    ("check.seq_check_ms", ms, span_ms "check.seq_check");
    ("server.hit_ms_p50", ms, obs "server.hit_ms");
    ("server.miss_ms_p50", ms, obs "server.miss_ms");
    ("server.hit_ratio", "ratio", obs "server.hit_ratio");
    ("server.stage.parse_ms_p50", ms, obs "server.stage.parse_ms_p50");
    ("server.stage.schedule_ms_p50", ms, obs "server.stage.schedule_ms_p50");
    ("server.stage.lower_ms_p50", ms, obs "server.stage.lower_ms_p50");
    ("server.stage.total_ms_p50", ms, obs "server.stage.total_ms_p50");
    ("gc.alloc_mw", "Mword", obs alloc);
    ("gc.top_heap_mb", "MB",
     float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("codegen.instructions", n, cnt (prefix ^ "codegen.instructions"));
    ("codegen.messages", n, cnt (prefix ^ "codegen.messages"));
    ("codegen.messages_opt", n, cnt (prefix ^ "codegen.messages_opt"));
    ("runtime.slots", n, cnt (prefix ^ "runtime.slots"));
    ("runtime.messages", n, float_of_int runtime_messages);
    ("core.pattern_height", n, cnt (prefix ^ "core.pattern_height"));
    ("server.misses", n, cnt "server.misses");
    ("compile.unaccounted_ms", ms, span_ms "compile.batch");
    ("trace.overhead_ms", ms, obs "trace.overhead_ms");
    ("error_frac", "ratio", error_frac ());
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json rows =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         rows)
  ^ "}"

let provenance env =
  Printf.sprintf
    {|{"workload": %S, "seed": %d, "seconds": %g, "trace": %b, "nproc": %d, "ocaml": %S, "commit": %S, "source_digest": %S, "calib_ms_p50": %s, "host_scale": %s, "samples": {%s}}|}
    env.workload env.seed env.seconds env.trace (Domain.recommended_domain_count ())
    Sys.ocaml_version env.commit env.source_digest
    (json_number (median (values "calib_ms")))
    (json_number (host_scale ()))
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%S: %d" k (List.length (values k)))
          [ "run_ms"; "p1_run_ms"; "seq_ms"; "compile_ms"; "serve_ms";
            "server.hit_ms"; "server.miss_ms"; "setup_s"; "probe_setup_s"; "calib_ms" ]))

(* Every sample series, for the result file. *)
let raw_samples () =
  let series =
    Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) samples [] |> List.sort compare
  in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, vs) ->
           Printf.sprintf "%S: [%s]" k (String.concat ", " (List.map json_number vs)))
         series)
  ^ "}"

(* One line per end-to-end metric: the reported (host-scaled) value,
   the raw wall-clock value and the samples behind it. *)
let print_report ~scaled ~raw =
  let n key = List.length (values key) in
  let describe key =
    let _, pct, count, beyond = tail (scaled_values key) in
    Printf.sprintf "p%d of %d samples, %d beyond" pct count beyond
  in
  Printf.printf
    "host scale %.4f for per-layer times (reference kernel %.1f ms / run median %.4f ms over %d timings); end-to-end times are scaled per operation\n"
    (host_scale ()) reference_calib_ms (median (values "calib_ms")) (n "calib_ms");
  List.iter2
    (fun (name, unit, v) (_, _, r) ->
      let detail =
        match name with
        | "run_ms_tail" -> describe "run_ms"
        | "serve_ms_tail" -> describe "serve_ms"
        | "run_ms_p50" -> Printf.sprintf "%d samples" (n "run_ms")
        | "p1_run_ms_p50" -> Printf.sprintf "%d samples" (n "p1_run_ms")
        | "compile_ms_p50" -> Printf.sprintf "%d samples" (n "compile_ms")
        | "serve_ms_p50" -> Printf.sprintf "%d samples" (n "serve_ms")
        | "serve_rps" -> Printf.sprintf "%d episodes" (n "serve_requests")
        | "setup_s" -> Printf.sprintf "%d set-ups" (n "setup_s")
        | _ -> "process high-water mark"
      in
      Printf.printf "%-30s %14.4f %-6s (raw %.4f; %s)\n" name v unit r detail)
    scaled raw;
  Printf.printf "%-30s %14.4f ratio  (%d failed of %d attempted)\n" "error_frac" (error_frac ())
    (List.length !failures) !attempted;
  let run = median (scaled_values "run_ms") and seq = median (scaled_values "seq_ms") in
  let p1 = median (scaled_values "p1_run_ms") in
  Printf.printf "derived speedup_vs_seq         %14.4f x  (seq interp p50 %.3f ms / run p50 %.3f ms)\n"
    (seq /. run) seq run;
  Printf.printf "derived speedup_vs_p1          %14.4f x  (p1 run p50 %.3f ms / run p50 %.3f ms)\n"
    (p1 /. run) p1 run

(* compile-batch: per traced batch, the batch's time is the sum of its
   layers' self times plus its own self time (compile.unaccounted);
   print the medians of each side, raw wall-clock. *)
let print_layer_sum () =
  let spans = Spans.all () in
  let batches = List.filter (fun s -> s.Spans.name = "compile.batch") spans in
  if batches <> [] then begin
    let ms ns = float_of_int ns /. 1e6 in
    let self = Spans.self_times spans in
    let layers = Hashtbl.create 16 and per_batch = Hashtbl.create 64 in
    List.iter
      (fun (s, self_ns) ->
        if s.Spans.parent >= 0 && s.Spans.name <> "compile.batch" then
          match List.find_opt (fun b -> b.Spans.id = s.Spans.root) batches with
          | None -> ()
          | Some b ->
            Hashtbl.replace layers s.Spans.name ();
            Hashtbl.replace per_batch b.Spans.id
              (self_ns + Option.value ~default:0 (Hashtbl.find_opt per_batch b.Spans.id)))
      self;
    let unaccounted =
      List.filter_map (fun (s, self_ns) -> if s.Spans.name = "compile.batch" then Some (ms self_ns) else None) self
    in
    Hashtbl.fold (fun l () acc -> l :: acc) layers []
    |> List.sort compare
    |> List.iter (fun l ->
           let vs = Spans.self_per_root ~keep:(fun r -> List.exists (fun b -> b.Spans.id = r) batches) spans l in
           Printf.printf "layer %-28s %10.3f ms self per batch (median, raw)\n" l
             (median (List.map ms vs)));
    Printf.printf
      "batch p50 %.3f ms = layers %.3f ms + compile.unaccounted %.3f ms (medians over %d traced batches, raw)\n"
      (median (List.map (fun b -> ms (b.Spans.t1 - b.Spans.t0)) batches))
      (median (Hashtbl.fold (fun _ ns acc -> ms ns :: acc) per_batch []))
      (median unaccounted) (List.length batches)
  end

let counts_json () =
  "{"
  ^ String.concat ", "
      (Hashtbl.fold (fun k v acc -> Printf.sprintf "%S: %d" k v :: acc) counts []
      |> List.sort compare)
  ^ "}"

(* Counts must also repeat across runs of the same sources: compare
   with the result files earlier runs of this workload left in [dir]. *)
let compare_counts_with_earlier_runs env ~dir ~own =
  let prefix = "result-" ^ env.workload ^ "-" in
  let earlier =
    try Sys.readdir dir |> Array.to_list with Sys_error _ -> []
  in
  List.iter
    (fun f ->
      if String.starts_with ~prefix f && f <> own then
        match
          Json.parse (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)
        with
        | exception _ -> ()
        | j ->
          if field [ "provenance"; "source_digest" ] j = Some (Json.String env.source_digest)
          then
            Hashtbl.iter
              (fun k v ->
                match field [ "counts"; k ] j with
                | Some (Json.Int v') when v' <> v ->
                  fail "determinism" (Printf.sprintf "count %s is %d here, %d in %s" k v v' f)
                | _ -> ())
              counts)
    (List.sort compare earlier)

let write_file path contents =
  try Out_channel.with_open_text path (fun oc -> output_string oc contents)
  with Sys_error e -> prerr_endline ("perfbench: cannot write " ^ e)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let mimdloop = ref "" and out_dir = ref "." and perturb = ref false in
  let commit = ref "unknown" and source_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--mimdloop", Arg.Set_string mimdloop, "PATH the mimdloop binary (serve)");
      ("--out", Arg.Set_string out_dir, "DIR where result and span files go");
      ("--perturb", Arg.Set perturb, " skew the parallel runs' initial memory (must fail)");
      ("--commit", Arg.Set_string commit, "C provenance: source commit");
      ("--source-digest", Arg.Set_string source_digest, "D provenance: source digest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --mimdloop PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let env =
    {
      workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
      mimdloop = !mimdloop; out_dir = !out_dir; perturb = !perturb; commit = !commit;
      source_digest = !source_digest; rng = Prng.create ~seed:!seed; init = seeded_init !seed;
    }
  in
  Spans.set_enabled env.trace;
  at_exit kill_servers;
  (try run_workload env
   with e ->
     incr attempted;
     fail "workload" (Printexc.to_string e));
  let own = Printf.sprintf "result-%s-seed%d-trace%d.json" env.workload env.seed !trace in
  if env.source_digest <> "unknown" then compare_counts_with_earlier_runs env ~dir:env.out_dir ~own;
  observe "own_rss_mb" (vm_hwm_mb 0);
  let scale = host_scale () in
  let e2e = end_to_end ~raw:false env in
  let layers = per_layer ~scale env in
  let prov = provenance env in
  print_endline ("provenance " ^ prov);
  print_report ~scaled:e2e ~raw:(end_to_end ~raw:true env);
  if env.trace then begin
    List.iter (fun (name, unit, v) -> Printf.printf "%-30s %14.4f %s\n" name v unit) layers;
    print_layer_sum ();
    write_file
      (Filename.concat env.out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" env.workload env.seed))
      (Spans.to_json_lines (Spans.all ()))
  end;
  let metrics = metrics_json (if env.trace then layers else e2e) in
  let ok = !failures = [] in
  let result =
    Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": %s}|} ok
      (max 1 !attempted) (List.length !failures) metrics
  in
  write_file (Filename.concat env.out_dir own)
    (Printf.sprintf {|{"provenance": %s, "result": %s, "counts": %s, "samples": %s}|} prov
       result (counts_json ()) (raw_samples ())
    ^ "\n");
  print_endline result;
  exit (if ok then 0 else 1)
