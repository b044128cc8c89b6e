module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Interp = Mimd_loop_ir.Interp
module Value_exec = Mimd_sim.Value_exec

type outcome = {
  instance_values : ((int * int) * float) list;
  final : (string * int * float) list;
  messages : int;
  domains : int;
  domain_wall_ns : float array;
  makespan_ns : float;
}

type payload =
  | Single of float
  | Pack of ((int * int) * float) array

type chans = {
  send : dst:int -> tag:int * int -> payload -> unit;
  recv : src:int -> tag:int * int -> payload;
}

let default_channel_capacity = 256

let finalize ~loop ~program ~results =
  if not (Ast.is_flat loop) then invalid_arg "Value_run: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  if Array.length stmts <> Graph.node_count program.Program.graph then
    invalid_arg "Value_run: statement/node count mismatch";
  let values : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let messages = ref 0 in
  Array.iter
    (fun (computed, sent, _) ->
      messages := !messages + sent;
      List.iter (fun (k, v) -> Hashtbl.replace values k v) computed)
    results;
  (* Authoritative final memory: every cell takes the value of its last
     writer in sequential (iteration, body position) order — the same
     fold as Sim.Value_exec so the two executors are comparable
     list-for-list. *)
  let last_writer : (string * int, (int * int) * float) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (node, iter) v ->
      let array, offset, _ = stmts.(node) in
      let cell = (array, Interp.cell_index array ~iter ~offset) in
      let better =
        match Hashtbl.find_opt last_writer cell with
        | None -> true
        | Some ((i', s'), _) -> (iter, node) > (i', s')
      in
      if better then Hashtbl.replace last_writer cell ((iter, node), v))
    values;
  let final =
    Hashtbl.fold (fun (a, i) (_, v) acc -> (a, i, v) :: acc) last_writer []
    |> List.sort compare
  in
  let instance_values =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) values [] |> List.sort compare
  in
  let domain_wall_ns = Array.map (fun (_, _, ns) -> ns) results in
  {
    instance_values;
    final;
    messages = !messages;
    domains = program.Program.processors;
    domain_wall_ns;
    makespan_ns = Array.fold_left max 0.0 domain_wall_ns;
  }

let check_against_sequential ?init ?scalars ~loop ~iterations outcome =
  Value_exec.check_final ?init ?scalars ~loop ~iterations ~final:outcome.final ()
