module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph

type 'r outcome = Done of 'r | Torn_down | Failed of string

let run ?(watchdog = Watchdog.default) ~graph ~programs ~cancel_all ~worker () =
  let procs = Array.length programs in
  let progress = Array.init procs (fun _ -> Atomic.make 0) in
  let finished = Atomic.make 0 in
  let names i = Graph.name graph i in
  (* Only a stall reads the programs back; a healthy run never walks
     them. *)
  let snapshot j =
    let retired = Atomic.get progress.(j) in
    let prog = programs.(j) in
    let current =
      Option.map
        (Format.asprintf "%a" (Program.pp_instr ~names))
        (List.nth_opt prog retired)
    in
    { Watchdog.proc = j; retired; total = List.length prog; current }
  in
  (* The last domain to finish writes one byte here, so the guard
     returns at once instead of on its next poll. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let body j () =
    let tick () = Atomic.incr progress.(j) in
    let r =
      match worker ~proc:j ~tick with
      | v -> Done v
      | exception Channel.Cancelled -> Torn_down
      | exception e ->
        (* Fail fast: siblings blocked on this domain's messages must
           not wait out the watchdog. *)
        cancel_all ();
        Failed (Printexc.to_string e)
    in
    if Atomic.fetch_and_add finished 1 = procs - 1 then
      ignore (Unix.write_substring wake_w "!" 0 1);
    r
  in
  let doms = Array.init procs (fun j -> Domain.spawn (body j)) in
  let verdict =
    Watchdog.guard ~config:watchdog ~wake:wake_r
      ~finished:(fun () -> Atomic.get finished = procs)
      ~progress:(fun () -> Array.fold_left (fun acc c -> acc + Atomic.get c) 0 progress)
      ~cancel:cancel_all
      ~snapshots:(fun () -> List.init procs snapshot)
      ()
  in
  let results = Array.map Domain.join doms in
  Unix.close wake_r;
  Unix.close wake_w;
  Array.iteri
    (fun j r ->
      match r with
      | Failed msg -> failwith (Printf.sprintf "runtime: domain %d failed: %s" j msg)
      | Done _ | Torn_down -> ())
    results;
  (match verdict with
  | `Stalled stall -> raise (Watchdog.Runtime_deadlock stall)
  | `Finished -> ());
  Array.map
    (function
      | Done v -> v
      | Torn_down | Failed _ -> failwith "runtime: domain torn down without a stall")
    results
