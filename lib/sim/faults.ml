open Zen_crypto
open Zen_latus

type cert_fault = Drop | Delay of int | Duplicate of int | Withhold

type fault =
  | Crash_worker of { epoch : int; worker : int }
  | Slow_worker of { epoch : int; worker : int; factor : int }
  | Cert_fault of { epoch : int; fault : cert_fault }
  | Reorg of { tick : int; depth : int }
  | Clock_skew of { tick : int; millis : int }

type plan = fault list

let fault_to_string = function
  | Crash_worker { epoch; worker } -> Printf.sprintf "crash@%d:w%d" epoch worker
  | Slow_worker { epoch; worker; factor } ->
    Printf.sprintf "slow@%d:w%d:x%d" epoch worker factor
  | Cert_fault { epoch; fault = Drop } -> Printf.sprintf "drop@%d" epoch
  | Cert_fault { epoch; fault = Delay t } -> Printf.sprintf "delay@%d:+%d" epoch t
  | Cert_fault { epoch; fault = Duplicate n } ->
    Printf.sprintf "dup@%d:x%d" epoch n
  | Cert_fault { epoch; fault = Withhold } -> Printf.sprintf "withhold@%d" epoch
  | Reorg { tick; depth } -> Printf.sprintf "reorg@%d:d%d" tick depth
  | Clock_skew { tick; millis } -> Printf.sprintf "skew@%d:+%dms" tick millis

(* Each copy is a queued resubmission, so the count is capped well
   above what the storm draws (1–2) to keep a typo from stalling a run. *)
let max_duplicates = 16

let fault_of_string s =
  let attempt fmt k =
    try Some (Scanf.sscanf s fmt k)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  let candidates =
    [
      (fun () ->
        attempt "crash@%d:w%d%!" (fun epoch worker ->
            Crash_worker { epoch; worker }));
      (fun () ->
        attempt "slow@%d:w%d:x%d%!" (fun epoch worker factor ->
            Slow_worker { epoch; worker; factor }));
      (fun () ->
        attempt "drop@%d%!" (fun epoch -> Cert_fault { epoch; fault = Drop }));
      (fun () ->
        attempt "delay@%d:+%d%!" (fun epoch t ->
            Cert_fault { epoch; fault = Delay t }));
      (fun () ->
        attempt "dup@%d:x%d%!" (fun epoch n ->
            Cert_fault { epoch; fault = Duplicate n }));
      (fun () ->
        attempt "withhold@%d%!" (fun epoch ->
            Cert_fault { epoch; fault = Withhold }));
      (fun () -> attempt "reorg@%d:d%d%!" (fun tick depth -> Reorg { tick; depth }));
      (fun () ->
        attempt "skew@%d:+%dms%!" (fun tick millis -> Clock_skew { tick; millis }));
    ]
  in
  let valid = function
    | Crash_worker { epoch; worker } -> epoch >= 0 && worker >= 0
    | Slow_worker { epoch; worker; factor } ->
      epoch >= 0 && worker >= 0 && factor >= 1
    | Cert_fault { epoch; fault } -> (
      epoch >= 0
      &&
      match fault with
      | Delay t -> t >= 1
      | Duplicate n -> n >= 1 && n <= max_duplicates
      | _ -> true)
    | Reorg { tick; depth } -> tick >= 1 && depth >= 1
    | Clock_skew { tick; millis } -> tick >= 1 && millis >= 1
  in
  match List.find_map (fun f -> f ()) candidates with
  | Some f when valid f -> Ok f
  | Some _ -> Error (Printf.sprintf "fault plan: out-of-range value in %S" s)
  | None -> Error (Printf.sprintf "fault plan: cannot parse %S" s)

let plan_to_string = function
  | [] -> "none"
  | plan -> String.concat "," (List.map fault_to_string plan)

let ( let* ) = Result.bind

let plan_of_string s =
  let s = String.trim s in
  if s = "none" || s = "" then Ok []
  else
    List.fold_left
      (fun acc part ->
        let* plan = acc in
        let* f = fault_of_string (String.trim part) in
        Ok (f :: plan))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

(* All randomness is spent here, turning a seed into concrete data; the
   runtime below never rolls dice, which is what makes (seed, plan)
   replay exact. *)
let storm ~seed ?(first_tick = 1) ?(ticks = 32) ?(epochs = 8) ?(workers = 4)
    ?(intensity = 25) () =
  let rng = Rng.create seed in
  let roll p = p > 0 && Rng.int rng 100 < p in
  let out = ref [] in
  let push f = out := f :: !out in
  for epoch = 0 to epochs - 1 do
    if roll intensity then begin
      (* Delays and duplicates dominate: they perturb without killing
         liveness, so a default storm still certifies epochs. *)
      let k = Rng.int rng 10 in
      let fault =
        if k < 4 then Delay (1 + Rng.int rng 3)
        else if k < 8 then Duplicate (1 + Rng.int rng 2)
        else if k < 9 then Drop
        else Withhold
      in
      push (Cert_fault { epoch; fault })
    end;
    if roll intensity && workers > 1 then begin
      let worker = Rng.int rng workers in
      if Rng.bool rng then push (Crash_worker { epoch; worker })
      else push (Slow_worker { epoch; worker; factor = 2 + Rng.int rng 6 })
    end
  done;
  for tick = first_tick to first_tick + ticks - 1 do
    if roll (intensity / 4) then push (Reorg { tick; depth = 1 + Rng.int rng 3 });
    if roll (intensity / 2) then
      push (Clock_skew { tick; millis = 1 + Rng.int rng 250 })
  done;
  List.rev !out

type t = {
  plan : plan;
  mutable injected : int;
  fired : (string, unit) Hashtbl.t;
}

let create plan = { plan; injected = 0; fired = Hashtbl.create 16 }
let plan t = t.plan
let injected t = t.injected

let fire t key =
  if Hashtbl.mem t.fired key then false
  else begin
    Hashtbl.add t.fired key ();
    t.injected <- t.injected + 1;
    true
  end

let cert_fault t ~epoch =
  List.find_map
    (function
      | Cert_fault { epoch = e; fault } when e = epoch -> Some fault
      | _ -> None)
    t.plan

let reorg_at t ~tick =
  List.find_map
    (function Reorg { tick = k; depth } when k = tick -> Some depth | _ -> None)
    t.plan

let skew_at t ~tick =
  List.find_map
    (function
      | Clock_skew { tick = k; millis } when k = tick -> Some millis | _ -> None)
    t.plan

let prover_faults t ~epoch =
  List.filter_map
    (function
      | Crash_worker { epoch = e; worker } when e = epoch ->
        Some (worker, Prover_pool.Crash)
      | Slow_worker { epoch = e; worker; factor } when e = epoch ->
        Some (worker, Prover_pool.Slow factor)
      | _ -> None)
    t.plan
