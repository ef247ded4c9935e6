type t =
  | Fixed of float
  | Poisson of float
  | Bursty of { rate : float; on_len : float; off_len : float }

let validate = function
  | Fixed r | Poisson r ->
      if not (r > 0.) then invalid_arg "Arrivals: rate must be > 0"
  | Bursty { rate; on_len; off_len } ->
      if not (rate > 0.) then invalid_arg "Arrivals: rate must be > 0";
      if not (on_len > 0.) then invalid_arg "Arrivals: on_len must be > 0";
      if not (off_len >= 0.) then invalid_arg "Arrivals: off_len must be >= 0"

let rate = function Fixed r | Poisson r | Bursty { rate = r; _ } -> r

let to_string = function
  | Fixed r -> Printf.sprintf "fixed:%g" r
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Bursty { rate; on_len; off_len } ->
      Printf.sprintf "bursty:%g:%g:%g" rate on_len off_len

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "Arrivals.of_string: %S (expected fixed:R | poisson:R | \
          bursty:R:ON:OFF)"
         s)
  in
  let float_field f = match float_of_string_opt f with
    | Some v -> v
    | None -> fail ()
  in
  let t =
    match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
    | [ "fixed"; r ] -> Fixed (float_field r)
    | [ "poisson"; r ] -> Poisson (float_field r)
    | [ "bursty"; r; on_len; off_len ] ->
        Bursty
          {
            rate = float_field r;
            on_len = float_field on_len;
            off_len = float_field off_len;
          }
    | _ -> fail ()
  in
  (match validate t with () -> () | exception Invalid_argument _ -> fail ());
  t

(* Domain-separation tag for the keyed per-source streams, so arrival
   draws can never collide with another keyed stream derived from the
   same seed. *)
let stream_tag = 0x41525256 (* "ARRV" *)

type source = {
  rng : Rng.t;
  process : t;
  mutable next_at : float;
  mutable on_clock : float;
      (* Bursty only: cumulative ON-window time consumed so far. The
         process is Poisson(rate) on this clock; [real_of_on] maps it
         back to real time by re-inserting the OFF windows. *)
}

let exp_draw rng ~rate =
  (* Inverse-CDF exponential; 1 - u is in (0, 1], so log never sees 0. *)
  let u = Rng.float rng 1. in
  -.log (1. -. u) /. rate

let real_of_on ~on_len ~off_len on_t =
  let cycle = on_len +. off_len in
  let full = Float.of_int (int_of_float (on_t /. on_len)) in
  (full *. cycle) +. (on_t -. (full *. on_len))

let advance src =
  match src.process with
  | Fixed r -> src.next_at <- src.next_at +. (1. /. r)
  | Poisson r -> src.next_at <- src.next_at +. exp_draw src.rng ~rate:r
  | Bursty { rate; on_len; off_len } ->
      src.on_clock <- src.on_clock +. exp_draw src.rng ~rate;
      src.next_at <- real_of_on ~on_len ~off_len src.on_clock

let source t ~seed ~origin =
  validate t;
  let src =
    { rng = Rng.keyed ~seed origin stream_tag; process = t; next_at = 0.; on_clock = 0. }
  in
  advance src;
  src

let stream t ~seed ~origin ~count =
  if count < 0 then invalid_arg "Arrivals.stream: count < 0";
  let src = source t ~seed ~origin in
  Array.init count (fun _ ->
      let at = src.next_at in
      advance src;
      at)

let merge t ~seed ~n ~ops =
  if n < 1 then invalid_arg "Arrivals.merge: n < 1";
  if ops < 0 then invalid_arg "Arrivals.merge: ops < 0";
  validate t;
  let sources = Array.init n (fun i -> source t ~seed ~origin:(i + 1)) in
  Array.init ops (fun _ ->
      (* Earliest next arrival; ties broken by origin id, so the merged
         sequence is a pure function of (process, seed, n) — independent
         of any engine state. *)
      let best = ref 0 in
      for i = 1 to n - 1 do
        if sources.(i).next_at < sources.(!best).next_at then best := i
      done;
      let src = sources.(!best) in
      let at = src.next_at in
      advance src;
      (at, !best + 1))
