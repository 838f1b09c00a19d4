type plan = {
  seed : string;
  drop : float;
  truncate : float;
  duplicate : float;
  disconnect : float;
  delay : float;
  max_delay_s : float;
  cut_after : int option;
}

let plan ?(drop = 0.) ?(truncate = 0.) ?(duplicate = 0.) ?(disconnect = 0.)
    ?(delay = 0.) ?(max_delay_s = 0.002) ?cut_after ~seed () =
  { seed; drop; truncate; duplicate; disconnect; delay; max_delay_s; cut_after }

type stats = {
  mutable drops : int;
  mutable truncates : int;
  mutable duplicates : int;
  mutable disconnects : int;
  mutable delays : int;
}

let fresh_stats () =
  { drops = 0; truncates = 0; duplicates = 0; disconnects = 0; delays = 0 }

let m_drops = Obs.Metrics.counter "wire.fault.drops"
let m_truncates = Obs.Metrics.counter "wire.fault.truncates"
let m_duplicates = Obs.Metrics.counter "wire.fault.duplicates"
let m_disconnects = Obs.Metrics.counter "wire.fault.disconnects"
let m_delays = Obs.Metrics.counter "wire.fault.delays"

(* SplitMix64: a tiny, well-mixed deterministic stream. Fault schedules
   must replay exactly from their seed, and must not consume the
   protocol parties' DRBG streams, so the wrapper keeps its own
   generator. (Not cryptographic; never used for keys.) *)
module Stream = struct
  type t = { mutable state : int64 }

  (* FNV-1a-64 of the seed string gives the initial state. *)
  let of_seed seed = { state = Fnv64.string seed }

  let next t =
    t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform in [0, 1) from the top 53 bits. *)
  let next_float t =
    let bits = Int64.shift_right_logical (next t) 11 in
    Int64.to_float bits *. (1. /. 9007199254740992.)
end

type conn = {
  inner : Transport.t;
  plan : plan;
  stream : Stream.t;
  stats : stats;
  mutable sends : int;
  mutable cut : bool;
}

let injected_disconnect c =
  c.stats.disconnects <- c.stats.disconnects + 1;
  Obs.Metrics.incr m_disconnects;
  Transport.close c.inner;
  raise (Errors.Protocol_error "fault: injected disconnect")

type event = Pass | Drop | Truncate | Duplicate | Disconnect | Delay

let draw_event c =
  let u = Stream.next_float c.stream in
  let p = c.plan in
  if u < p.drop then Drop
  else if u < p.drop +. p.truncate then Truncate
  else if u < p.drop +. p.truncate +. p.duplicate then Duplicate
  else if u < p.drop +. p.truncate +. p.duplicate +. p.disconnect then Disconnect
  else if u < p.drop +. p.truncate +. p.duplicate +. p.disconnect +. p.delay then
    Delay
  else Pass

let send c frame =
  if c.cut then raise (Errors.Protocol_error "fault: injected disconnect");
  c.sends <- c.sends + 1;
  (match c.plan.cut_after with
  | Some k when c.sends > k ->
      c.cut <- true;
      injected_disconnect c
  | _ -> ());
  match draw_event c with
  | Pass -> Transport.send c.inner frame
  | Drop ->
      c.stats.drops <- c.stats.drops + 1;
      Obs.Metrics.incr m_drops
  | Truncate ->
      c.stats.truncates <- c.stats.truncates + 1;
      Obs.Metrics.incr m_truncates;
      let keep =
        int_of_float (Stream.next_float c.stream *. float_of_int (String.length frame))
      in
      Transport.send c.inner (String.sub frame 0 keep)
  | Duplicate ->
      c.stats.duplicates <- c.stats.duplicates + 1;
      Obs.Metrics.incr m_duplicates;
      Transport.send c.inner frame;
      Transport.send c.inner frame
  | Disconnect ->
      c.cut <- true;
      injected_disconnect c
  | Delay ->
      c.stats.delays <- c.stats.delays + 1;
      Obs.Metrics.incr m_delays;
      Thread.delay (Stream.next_float c.stream *. c.plan.max_delay_s);
      Transport.send c.inner frame

(* The fault schedule draws exactly one event per frame, so a streamed
   send is assembled first and then fed through [send]: seeded
   schedules replay identically whether the sender streamed or not. *)
let send_stream c ~total produce =
  let buf = Buffer.create total in
  let rec pull () =
    match produce () with
    | Some chunk ->
        Buffer.add_string buf chunk;
        pull ()
    | None -> ()
  in
  pull ();
  send c (Buffer.contents buf)

let recv ?deadline ?max_bytes c = Transport.recv ?deadline ?max_bytes c.inner
let close c = Transport.close c.inner

let backend_name = "fault"

let wrap_conn c =
  Transport.Conn
    ( (module struct
        type nonrec conn = conn

        let name = backend_name
        let send = send
        let send_stream = send_stream
        let recv = recv
        let close = close
      end),
      c )

let wrap_with_stats ~label ~stats plan inner =
  wrap_conn
    {
      inner;
      plan;
      stream = Stream.of_seed (plan.seed ^ "/" ^ label);
      stats;
      sends = 0;
      cut = false;
    }

let wrap ?(label = "a") plan inner =
  let stats = fresh_stats () in
  (wrap_with_stats ~label ~stats plan inner, stats)

let wrap_pair plan (a, b) =
  let stats = fresh_stats () in
  ( ( wrap_with_stats ~label:"a" ~stats plan a,
      wrap_with_stats ~label:"b" ~stats plan b ),
    stats )
