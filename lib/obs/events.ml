type t = { mutable entries : string list (* newest first *); mu : Mutex.t }

let create () = { entries = []; mu = Mutex.create () }

let add t s =
  Mutex.lock t.mu;
  t.entries <- s :: t.entries;
  Mutex.unlock t.mu;
  Trace.instant ~cat:"event" s

let items t = List.rev (Mutex.protect t.mu (fun () -> t.entries))
