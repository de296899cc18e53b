type t = { name : string; cells : int ref Sharded.t }

let registered : t list ref = ref []
let mu = Mutex.create ()

let make name =
  Mutex.lock mu;
  match List.find_opt (fun c -> String.equal c.name name) !registered with
  | Some c ->
    Mutex.unlock mu;
    c
  | None ->
    let c = { name; cells = Sharded.create (fun () -> ref 0) } in
    registered := c :: !registered;
    Mutex.unlock mu;
    Registry.on_reset (fun () -> Sharded.iter c.cells ~f:(fun r -> r := 0));
    c

let add t n =
  if Registry.enabled () then begin
    let cell = Sharded.get t.cells in
    cell := !cell + n
  end

let incr t = add t 1
let value t = Sharded.fold t.cells ~init:0 ~f:(fun acc r -> acc + !r)
let name t = t.name

let all () =
  Mutex.lock mu;
  let cs = !registered in
  Mutex.unlock mu;
  List.sort (fun a b -> String.compare a.name b.name) cs
