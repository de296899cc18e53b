type t = { name : string; cell : float Atomic.t }

let registered : t list ref = ref []
let mu = Mutex.create ()

let make name =
  Mutex.lock mu;
  match List.find_opt (fun g -> String.equal g.name name) !registered with
  | Some g ->
    Mutex.unlock mu;
    g
  | None ->
    let g = { name; cell = Atomic.make 0. } in
    registered := g :: !registered;
    Mutex.unlock mu;
    Registry.on_reset (fun () -> Atomic.set g.cell 0.);
    g

let set_int t n = if Registry.enabled () then Atomic.set t.cell (float_of_int n)
let value t = Atomic.get t.cell
let name t = t.name

let all () =
  Mutex.lock mu;
  let gs = !registered in
  Mutex.unlock mu;
  List.sort (fun a b -> String.compare a.name b.name) gs
