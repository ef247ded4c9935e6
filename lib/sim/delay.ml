type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Adversarial_jitter of float

let default = Constant 1.0

(* Delivery must be strictly after sending, otherwise quiescence detection
   could livelock on zero-delay self-messages. *)
let floor_positive d = if d <= 0. then 1e-9 else d

let sample t rng =
  let d =
    match t with
    | Constant d -> d
    | Uniform (lo, hi) ->
        if hi <= lo then lo else lo +. Rng.float rng (hi -. lo)
    | Exponential mean ->
        (* Inverse-CDF sampling; clamp u away from 0 to avoid log 0. *)
        let u = max (Rng.float rng 1.0) 1e-12 in
        -.mean *. log u
    | Adversarial_jitter base ->
        if Rng.float rng 1.0 < 0.9 then base +. Rng.float rng base
        else base +. Rng.float rng (99. *. base)
  in
  floor_positive d

let pp ppf = function
  | Constant d -> Format.fprintf ppf "constant:%g" d
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform:%g,%g" lo hi
  | Exponential m -> Format.fprintf ppf "exp:%g" m
  | Adversarial_jitter b -> Format.fprintf ppf "jitter:%g" b

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let fail () = Error (Printf.sprintf "cannot parse delay %S" s) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let float_of s = float_of_string_opt (String.trim s) in
      match kind with
      | "constant" -> (
          match float_of rest with Some d -> Ok (Constant d) | None -> fail ())
      | "exp" -> (
          match float_of rest with Some d -> Ok (Exponential d) | None -> fail ())
      | "jitter" -> (
          match float_of rest with
          | Some d -> Ok (Adversarial_jitter d)
          | None -> fail ())
      | "uniform" -> (
          match String.split_on_char ',' rest with
          | [ lo; hi ] -> (
              match (float_of lo, float_of hi) with
              | Some lo, Some hi -> Ok (Uniform (lo, hi))
              | _ -> fail ())
          | _ -> fail ())
      | _ -> fail ())
