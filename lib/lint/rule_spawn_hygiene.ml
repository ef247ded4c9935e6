(* R3 — spawn-context hygiene.

   Code running inside a spawned domain (the spawn closure plus every
   binding reachable from it, intra-file) must not: draw from an Rng
   stream (per-domain draws interleave nondeterministically with the
   seeded stream — derive a keyed stream outside the closure instead),
   mutate the Sim.Network engine (single-domain state: parallelism in
   this repo is whole independent runs per domain, each building its own
   network, as in Analysis.Replicate), or swallow exceptions (a silently
   dead worker leaves the coordinator waiting on, or reading, results
   that never arrive). An exception should escape the closure, so that
   Domain.join re-raises it in the coordinator. The one sanctioned
   catching shape parks it instead: bind the exception and store it in
   shared state for the coordinator to re-raise — recognized as a
   handler that binds the exception and stores it with a mutation. *)

let rng_draws =
  [
    "bits64";
    "int";
    "int_in";
    "float";
    "bool";
    "shuffle";
    "pick";
    "pick_list";
    "permutation";
  ]

let network_mutators =
  [
    "create";
    "send";
    "schedule_local";
    "step";
    "run_to_quiescence";
    "crash";
    "recover";
    "set_handler";
    "set_scheduler";
    "declare_unordered";
    "begin_op";
    "end_op";
    "observe";
    "with_scheduler";
  ]

let rec components (lid : Ppxlib.Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> components l @ [ s ]
  | Lapply _ -> []

let member_of ~m ~table lid =
  match List.rev (components lid) with
  | x :: m' :: _ -> String.equal m m' && List.mem x table
  | _ -> false

(* Mirrors Dataflow's chunk indexing so nested named helpers aren't
   walked twice: a reachable nested binding appears in worker_bodies on
   its own. *)
let rec binder_name (p : Ppxlib.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binder_name p
  | _ -> None

let rec is_function (e : Ppxlib.expression) =
  match e.pexp_desc with
  | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_function e
  | _ -> false

let rec case_var (p : Ppxlib.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_alias (_, { txt; _ }) -> Some txt
  | Ppat_constraint (p, _) -> case_var p
  | _ -> None

let mentions v (e : Ppxlib.expression) =
  let found = ref false in
  let it =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt = Lident x; _ } when String.equal x v ->
            found := true
        | _ -> ());
        super#expression e
    end
  in
  it#expression e;
  !found

let has_mutation (e : Ppxlib.expression) =
  let found = ref false in
  let it =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_setfield _ -> found := true
        | Pexp_apply
            ({ pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ }, _) ->
            found := true
        | _ -> ());
        super#expression e
    end
  in
  it#expression e;
  !found

(* The parking shape: [with e -> failure := Some e], re-raised by the
   coordinator after the join. The handler must bind the exception and
   visibly store it. *)
let parks (c : Ppxlib.case) =
  match case_var c.pc_lhs with
  | Some v -> mentions v c.pc_rhs && has_mutation c.pc_rhs
  | None -> false

let check_case ctx (c : Ppxlib.case) =
  if
    Rule_stall.pattern_is_wildcard c.pc_lhs
    && (not (Rule.body_reraises c.pc_rhs))
    && not (parks c)
  then
    Rule.emit ctx ~loc:c.pc_lhs.ppat_loc ~rule:"R3"
      ~message:
        "exception swallowed inside a spawned domain context — a silent \
         worker death loses its results without telling the coordinator"
      ~hint:
        "re-raise (Domain.join hands it to the coordinator), or park it \
         for the coordinator: bind the exception and store it in shared \
         failure state"

let walk_body ctx (body : Ppxlib.expression) =
  let it =
    object (self_)
      inherit Ppxlib.Ast_traverse.iter as super

      method! value_binding vb =
        match binder_name vb.pvb_pat with
        | Some _ when is_function vb.pvb_expr ->
            (* its own worker body if reachable; never walked here *)
            self_#pattern vb.pvb_pat
        | Some _ | None -> super#value_binding vb

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
            if member_of ~m:"Rng" ~table:rng_draws txt then
              Rule.emit ctx ~loc ~rule:"R3"
                ~message:
                  "Rng draw inside a spawned domain context — per-domain \
                   draws race the seeded stream and break replay"
                ~hint:
                  "derive a keyed stream (Rng.keyed) outside the closure \
                   and hand it in, or draw before spawning"
            else if member_of ~m:"Network" ~table:network_mutators txt then
              Rule.emit ctx ~loc ~rule:"R3"
                ~message:
                  "Sim.Network mutation inside a spawned domain context — \
                   the engine is single-domain state"
                ~hint:
                  "give each domain a whole independent run that builds \
                   its own network (Analysis.Replicate.parallel_map) \
                   instead of touching a shared engine"
        | Pexp_try (_, cases) -> List.iter (check_case ctx) cases
        | Pexp_match (_, cases) ->
            List.iter
              (fun (c : Ppxlib.case) ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception p -> check_case ctx { c with pc_lhs = p }
                | _ -> ())
              cases
        | _ -> ());
        super#expression e
    end
  in
  it#expression body

let check ctx str =
  let info = Dataflow.analyse str in
  List.iter (walk_body ctx) info.Dataflow.worker_bodies

let rule =
  {
    Rule.id = "R3";
    name = "spawn-hygiene";
    summary =
      "spawned domain contexts: no Rng draws, no Sim.Network mutation, \
       no exception swallowing outside the worker-exception channel";
    check;
  }
