type phase = Complete | Instant

type event = {
  name : string;
  cat : string;
  tid : int;
  ts : float;
  dur : float;
  depth : int;
  phase : phase;
  args : (string * string) list;
  seq : int;
}

type cell = {
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable depth : int;
  mutable seq : int;
}

let limit = 200_000
let buffer_limit () = limit

let buffers : cell Sharded.t =
  Sharded.create (fun () ->
      { events = []; count = 0; dropped = 0; depth = 0; seq = 0 })

let () =
  Registry.on_reset (fun () ->
      Sharded.iter buffers ~f:(fun c ->
          c.events <- [];
          c.count <- 0;
          c.dropped <- 0;
          c.seq <- 0))

let self_tid () = (Domain.self () :> int)

let push c ev =
  if c.count >= limit then c.dropped <- c.dropped + 1
  else begin
    c.events <- ev :: c.events;
    c.count <- c.count + 1
  end

let next_seq c =
  let s = c.seq in
  c.seq <- s + 1;
  s

let instant ?(cat = "") ?(args = []) name =
  if Registry.enabled () then begin
    let c = Sharded.get buffers in
    push c
      {
        name;
        cat;
        tid = self_tid ();
        ts = Clock.now ();
        dur = 0.;
        depth = c.depth;
        phase = Instant;
        args;
        seq = next_seq c;
      }
  end

let with_span ?(cat = "") ?(args = []) name f =
  if not (Registry.enabled ()) then f ()
  else begin
    let c = Sharded.get buffers in
    let depth = c.depth in
    c.depth <- depth + 1;
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        c.depth <- depth;
        push c
          {
            name;
            cat;
            tid = self_tid ();
            ts = t0;
            dur = Float.max 0. (t1 -. t0);
            depth;
            phase = Complete;
            args;
            seq = next_seq c;
          })
      f
  end

let events () =
  let all =
    Sharded.fold buffers ~init:[] ~f:(fun acc c -> List.rev_append c.events acc)
  in
  List.sort
    (fun a b ->
      match Float.compare a.ts b.ts with
      | 0 -> (
        match Int.compare a.tid b.tid with
        | 0 -> Int.compare a.seq b.seq
        | c -> c)
      | c -> c)
    all

let dropped () = Sharded.fold buffers ~init:0 ~f:(fun acc c -> acc + c.dropped)
