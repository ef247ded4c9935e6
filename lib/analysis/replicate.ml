type summary = {
  runs : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
}

let summarise values =
  match values with
  | [] -> invalid_arg "Replicate: no runs"
  | first :: _ ->
      let n = List.length values in
      let nf = float_of_int n in
      let mean = List.fold_left ( +. ) 0. values /. nf in
      let var =
        if n < 2 then 0.
        else
          List.fold_left
            (fun acc v ->
              let d = v -. mean in
              acc +. (d *. d))
            0. values
          /. (nf -. 1.)
      in
      let stddev = sqrt var in
      {
        runs = n;
        mean;
        stddev;
        min = List.fold_left Float.min first values;
        max = List.fold_left Float.max first values;
        ci95 = 1.96 *. stddev /. sqrt nf;
      }

let across_seeds ~seeds f = summarise (List.map f seeds)

let parallel_map ?domains f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let items = Array.of_list xs in
      let total = Array.length items in
      let domains =
        let requested =
          match domains with
          | Some d -> d
          | None -> Domain.recommended_domain_count ()
        in
        max 1 (min requested total)
      in
      (* Static chunking: worker [w] takes indices w, w+domains, ... *)
      let results = Array.make total None in
      let worker w () =
        let i = ref w in
        while !i < total do
          results.(!i) <- Some (f items.(!i));
          i := !i + domains
        done
      in
      let spawned =
        List.init (domains - 1) (fun w -> Domain.spawn (worker (w + 1)))
      in
      (* Join every domain before anything escapes: an orphaned domain
         would keep writing [results] (and running [f]) behind the
         caller's back. Failures are collected in worker order — the
         coordinator's own chunk is worker 0 — and the first one is
         re-raised once the whole pool is drained. *)
      let capture run =
        (match run () with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ()))
        [@dlint.allow
          "P1: held only until every domain is joined, then the first \
           failure (Stall included) is re-raised below"]
      in
      let own = capture (worker 0) in
      let failure =
        List.fold_left
          (fun first d ->
            let joined = capture (fun () -> Domain.join d) in
            match first with Some _ -> first | None -> joined)
          own spawned
      in
      Option.iter
        (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
        failure;
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

let across_seeds_parallel ?domains ~seeds f =
  summarise (parallel_map ?domains f seeds)

let pp_summary ppf s =
  Format.fprintf ppf "%.2f +- %.2f (sd=%.2f, n=%d, range %.1f-%.1f)" s.mean
    s.ci95 s.stddev s.runs s.min s.max
