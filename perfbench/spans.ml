(* In-memory spans around the benchmark's own calls into each layer.

   A span records its name, start, end, parent and an optional request
   id.  Spans are kept in a list and written once, when the benchmark
   ends.  With recording off, [span] is a plain call, so the untraced
   runs pay nothing for it.  The benchmark's main thread is the only
   caller. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  root : int;  (** id of the outermost enclosing span *)
  req : int;  (** request id, -1 when there is none *)
  t0 : int;  (** ns, {!Mimd_obs.Clock} *)
  t1 : int;
}

let on = ref false
let next_id = ref 0
let current = ref (-1)
let current_root = ref (-1)
let finished : t list ref = ref []

let set_enabled b = on := b
let enabled () = !on

let span ?(req = -1) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current and root = !current_root in
    current := id;
    if parent < 0 then current_root := id;
    let t0 = Mimd_obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Mimd_obs.Clock.now_ns () in
        current := parent;
        current_root := root;
        let root = if parent < 0 then id else root in
        finished := { id; name; parent; root; req; t0; t1 } :: !finished)
      f
  end

let all () = List.rev !finished

(* Self time of every span: its duration minus the time its direct
   children cover (children of one parent never overlap: the caller is
   single-threaded). *)
let self_times spans =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (s.t1 - s.t0 + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  List.map
    (fun s -> (s, s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)))
    spans

(* Per root span accepted by [keep], the summed self time (ns) of every
   span called [name] inside it; roots without such a span are left
   out. *)
let self_per_root ?(keep = fun _ -> true) spans name =
  let per_root = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.name = name && keep s.root then
        Hashtbl.replace per_root s.root
          (self + Option.value ~default:0 (Hashtbl.find_opt per_root s.root)))
    (self_times spans);
  Hashtbl.fold (fun _ ns acc -> ns :: acc) per_root []

let to_json_lines spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"root\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.parent s.root s.req s.t0 s.t1)
    spans;
  Buffer.contents b
