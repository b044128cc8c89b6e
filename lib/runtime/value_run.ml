module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Depend = Mimd_loop_ir.Depend
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

let finalize ~loop ~program ~(lowered : Lower.t) ~results =
  if not (Ast.is_flat loop) then invalid_arg "Value_run: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  let nodes = Array.length stmts in
  if nodes <> Graph.node_count program.Program.graph then
    invalid_arg "Value_run: statement/node count mismatch";
  let procs = program.Program.processors in
  if lowered.Lower.processors <> procs then
    invalid_arg "Value_run: lowered form is for another program";
  if Array.length results <> procs then
    invalid_arg
      (Printf.sprintf "Value_run: %d result(s) for %d processor(s)" (Array.length results)
         procs);
  Array.iteri
    (fun j (vals, _, _) ->
      let want = Array.length lowered.Lower.procs.(j).Lower.computes in
      if Array.length vals <> want then
        invalid_arg
          (Printf.sprintf "Value_run: PE %d returned %d value(s) for %d compute(s)" j
             (Array.length vals) want))
    results;
  (* Dense instance store, iteration-major: instance (node, iter) sits
     at [(iter - lo) * nodes + node], so index order is sequential
     (iteration, body position) order. *)
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun pc ->
      Array.iter
        (fun (_, i) ->
          if i < !lo then lo := i;
          if i > !hi then hi := i)
        pc.Lower.computes)
    lowered.Lower.procs;
  let lo, iters = if !hi < !lo then (0, 0) else (!lo, !hi - !lo + 1) in
  let inst = Array.make (iters * nodes) 0.0 in
  let present = Bytes.make (iters * nodes) '\000' in
  let messages = ref 0 in
  Array.iteri
    (fun j (vals, sent, _) ->
      messages := !messages + sent;
      Array.iteri
        (fun k (node, iter) ->
          let x = ((iter - lo) * nodes) + node in
          inst.(x) <- vals.(k);
          Bytes.set present x '\001')
        lowered.Lower.procs.(j).Lower.computes)
    results;
  (* One dense cell range per array name, names in sorted order; a
     fixed [@] cell is index 0 whatever the iteration. *)
  let names =
    Array.to_list stmts
    |> List.map (fun (a, _, _) -> a)
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let arrays = Array.length names in
  let rec find a k = if names.(k) = a then k else find a (k + 1) in
  let array_of = Array.map (fun (a, _, _) -> find a 0) stmts in
  let fixed = Array.map (fun (a, _, _) -> Depend.is_fixed_cell a) stmts in
  let cell_lo = Array.make arrays max_int and cell_hi = Array.make arrays min_int in
  Array.iteri
    (fun s (_, offset, _) ->
      let a = array_of.(s) in
      let l, h = if fixed.(s) then (0, 0) else (lo + offset, lo + iters - 1 + offset) in
      cell_lo.(a) <- min cell_lo.(a) l;
      cell_hi.(a) <- max cell_hi.(a) h)
    stmts;
  let width a = max 0 (cell_hi.(a) - cell_lo.(a) + 1) in
  let cells = Array.init arrays (fun a -> Array.make (width a) 0.0) in
  let written = Array.init arrays (fun a -> Bytes.make (width a) '\000') in
  (* Last writer: one pass in sequential order, later writes win. *)
  for it = 0 to iters - 1 do
    for s = 0 to nodes - 1 do
      let x = (it * nodes) + s in
      if Bytes.get present x <> '\000' then begin
        let a = array_of.(s) in
        let _, offset, _ = stmts.(s) in
        let c = if fixed.(s) then 0 else lo + it + offset - cell_lo.(a) in
        cells.(a).(c) <- inst.(x);
        Bytes.set written.(a) c '\001'
      end
    done
  done;
  (* Emit both lists back to front so each comes out sorted. *)
  let final = ref [] in
  for a = arrays - 1 downto 0 do
    for c = Bytes.length written.(a) - 1 downto 0 do
      if Bytes.get written.(a) c <> '\000' then
        final := (names.(a), cell_lo.(a) + c, cells.(a).(c)) :: !final
    done
  done;
  let instance_values = ref [] in
  for s = nodes - 1 downto 0 do
    for it = iters - 1 downto 0 do
      let x = (it * nodes) + s in
      if Bytes.get present x <> '\000' then
        instance_values := ((s, lo + it), inst.(x)) :: !instance_values
    done
  done;
  let domain_wall_ns = Array.map (fun (_, _, ns) -> ns) results in
  {
    instance_values = !instance_values;
    final = !final;
    messages = !messages;
    domains = procs;
    domain_wall_ns;
    makespan_ns = Array.fold_left max 0.0 domain_wall_ns;
  }

let check_against_sequential ?init ?scalars ~loop ~iterations outcome =
  Value_exec.check_final ?init ?scalars ~loop ~iterations ~final:outcome.final ()
