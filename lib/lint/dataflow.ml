(* Mechanism behind the drace rules (R1–R3): spawn-context discovery and
   mutable-access collection. The model and its documented blind spots
   live in dataflow.mli and docs/LINT.md.

   The file is cut into "chunks": every named function binding is one
   chunk, every literal [Domain.spawn] argument is one chunk, and the
   residue of the structure is one more. A chunk is Worker if it is a
   spawn argument or a binding transitively referenced from one
   (call-graph over bare names, intra-file), else Coordinator. Lock
   brackets, join points and barrier signals are resolved per chunk by
   byte offset — the same approximation a reviewer makes reading the
   function top to bottom. *)

type side = Worker | Coordinator

type kind = Read | Write

type access = {
  root : string;
  key : string;
  kind : kind;
  indexed : bool;
  side : side;
  locked : bool;
  post_join : bool;
  post_signal : bool;
  loc : Ppxlib.Location.t;
  offset : int;
}

type info = {
  spawns : int;
  accesses : access list;
  worker_bodies : Ppxlib.expression list;
}

(* ------------------------------------------------------------------ *)
(* Identifier paths *)

let rec path_of (lid : Ppxlib.Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> ( match path_of l with [] -> [] | p -> p @ [ s ])
  | Lapply _ -> []

let last_of p = List.fold_left (fun _ x -> x) "" p

(* (enclosing module component, member): [Sim.Rng.int] -> ("Rng", "int"),
   bare [ref] -> ("", "ref"). *)
let mod_member (lid : Ppxlib.Longident.t) =
  match List.rev (path_of lid) with
  | [] -> None
  | [ x ] -> Some ("", x)
  | x :: m :: _ -> Some (m, x)

let rec root_of (e : Ppxlib.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } -> Some (x, [])
  | Pexp_ident { txt; _ } -> (
      (* module-qualified value: global state, keyed by its full path *)
      match path_of txt with
      | [] -> None
      | p -> Some (String.concat "." p, []))
  | Pexp_field (b, { txt; _ }) -> (
      match root_of b with
      | Some (r, fs) -> Some (r, fs @ [ last_of (path_of txt) ])
      | None -> None)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, b) :: _)
    when (match mod_member txt with
         | Some
             ( ("Array" | "Bytes" | "String"),
               ("get" | "set" | "unsafe_get" | "unsafe_set") ) ->
             true
         | Some _ | None -> false) ->
      root_of b
  | Pexp_constraint (b, _) -> root_of b
  | _ -> None

let key_of (r, fs) = match fs with [] -> r | f :: _ -> r ^ "." ^ f

(* ------------------------------------------------------------------ *)
(* Syntactic tables *)

(* (module, member, kind, indexed, index of the state operand among the
   unlabelled arguments). Pseudo-module "" covers bare operators. *)
let call_table =
  [
    ("", ":=", Write, false, 0);
    ("", "!", Read, false, 0);
    ("", "incr", Write, false, 0);
    ("", "decr", Write, false, 0);
    ("Array", "set", Write, true, 0);
    ("Array", "unsafe_set", Write, true, 0);
    ("Array", "get", Read, true, 0);
    ("Array", "unsafe_get", Read, true, 0);
    ("Array", "fill", Write, false, 0);
    ("Array", "blit", Write, false, 2);
    ("Array", "sort", Write, false, 1);
    ("Array", "iter", Read, false, 1);
    ("Array", "iteri", Read, false, 1);
    ("Array", "map", Read, false, 1);
    ("Array", "mapi", Read, false, 1);
    ("Array", "exists", Read, false, 1);
    ("Array", "for_all", Read, false, 1);
    ("Array", "fold_left", Read, false, 2);
    ("Array", "length", Read, false, 0);
    ("Array", "to_list", Read, false, 0);
    ("Array", "copy", Read, false, 0);
    ("Array", "to_seq", Read, false, 0);
    ("Array", "sub", Read, false, 0);
    ("Bytes", "set", Write, true, 0);
    ("Bytes", "unsafe_set", Write, true, 0);
    ("Bytes", "get", Read, true, 0);
    ("Bytes", "unsafe_get", Read, true, 0);
    ("Bytes", "fill", Write, false, 0);
    ("Bytes", "blit", Write, false, 2);
    ("String", "get", Read, true, 0);
    ("Hashtbl", "add", Write, false, 0);
    ("Hashtbl", "replace", Write, false, 0);
    ("Hashtbl", "remove", Write, false, 0);
    ("Hashtbl", "reset", Write, false, 0);
    ("Hashtbl", "clear", Write, false, 0);
    ("Hashtbl", "filter_map_inplace", Write, false, 1);
    ("Hashtbl", "find", Read, false, 0);
    ("Hashtbl", "find_opt", Read, false, 0);
    ("Hashtbl", "find_all", Read, false, 0);
    ("Hashtbl", "mem", Read, false, 0);
    ("Hashtbl", "length", Read, false, 0);
    ("Hashtbl", "iter", Read, false, 1);
    ("Hashtbl", "fold", Read, false, 1);
    ("Hashtbl", "copy", Read, false, 0);
    ("Buffer", "add_string", Write, false, 0);
    ("Buffer", "add_char", Write, false, 0);
    ("Buffer", "add_bytes", Write, false, 0);
    ("Buffer", "add_substring", Write, false, 0);
    ("Buffer", "add_buffer", Write, false, 0);
    ("Buffer", "clear", Write, false, 0);
    ("Buffer", "reset", Write, false, 0);
    ("Buffer", "truncate", Write, false, 0);
    ("Buffer", "contents", Read, false, 0);
    ("Buffer", "length", Read, false, 0);
    ("Queue", "push", Write, false, 1);
    ("Queue", "add", Write, false, 1);
    ("Queue", "pop", Write, false, 0);
    ("Queue", "take", Write, false, 0);
    ("Queue", "clear", Write, false, 0);
    ("Queue", "peek", Read, false, 0);
    ("Queue", "length", Read, false, 0);
    ("Queue", "is_empty", Read, false, 0);
    ("Stack", "push", Write, false, 1);
    ("Stack", "pop", Write, false, 0);
    ("Stack", "top", Read, false, 0);
    ("Stack", "clear", Write, false, 0);
  ]

let classify_call lid =
  match mod_member lid with
  | None -> None
  | Some (m, x) ->
      List.find_opt
        (fun (m', x', _, _, _) -> String.equal m m' && String.equal x x')
        call_table

(* RHS shapes that build a value this chunk owns: accesses through a
   name bound to one of these are private until deliberately shared. *)
let creator_table =
  [
    ("", "ref");
    ("Array", "make");
    ("Array", "init");
    ("Array", "copy");
    ("Array", "of_list");
    ("Array", "append");
    ("Array", "sub");
    ("Array", "map");
    ("Array", "mapi");
    ("Hashtbl", "create");
    ("Buffer", "create");
    ("Bytes", "create");
    ("Bytes", "make");
    ("Bytes", "copy");
    ("Bytes", "of_string");
    ("Queue", "create");
    ("Stack", "create");
    ("Atomic", "make");
    ("Mutex", "create");
    ("Condition", "create");
    ("Rng", "create");
    ("Rng", "keyed");
    ("Rng", "split");
    ("Rng", "copy");
    ("Heap", "create");
    ("List", "init");
    ("List", "map");
    ("List", "filter");
    ("List", "filter_map");
    ("List", "rev");
    ("List", "sort");
    ("List", "append");
    ("List", "concat");
    ("List", "of_seq");
  ]

let rec is_creation (e : Ppxlib.expression) =
  match e.pexp_desc with
  | Pexp_constant _ | Pexp_construct _ | Pexp_variant _ | Pexp_tuple _
  | Pexp_record _ | Pexp_array _ | Pexp_function _ ->
      true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) | Pexp_lazy e ->
      is_creation e
  | Pexp_sequence (_, e) -> is_creation e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match mod_member txt with
      | Some (m, x) ->
          List.exists
            (fun (m', x') -> String.equal m m' && String.equal x x')
            creator_table
      | None -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Whole-file indices *)

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

let is_spawn_ident (e : Ppxlib.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match mod_member txt with
      | Some ("Domain", "spawn") -> true
      | Some _ | None -> false)
  | _ -> false

(* Field names that can change after construction: targets of [<-]
   anywhere in the file, plus labels declared [mutable] in it. Reads of
   any other field are reads of immutable structure and never recorded. *)
let mutable_fields str =
  let acc = ref [] in
  let add f = if not (List.mem f !acc) then acc := f :: !acc in
  let v =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_setfield (_, { txt; _ }, _) -> add (last_of (path_of txt))
        | _ -> ());
        super#expression e

      method! label_declaration ld =
        (match ld.pld_mutable with
        | Mutable -> add ld.pld_name.txt
        | Immutable -> ());
        super#label_declaration ld
    end
  in
  v#structure str;
  !acc

let function_bindings str =
  let acc = ref [] in
  let v =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! value_binding vb =
        (match binder_name vb.pvb_pat with
        | Some name when is_function vb.pvb_expr ->
            acc := (name, vb.pvb_expr) :: !acc
        | Some _ | None -> ());
        super#value_binding vb
    end
  in
  v#structure str;
  List.rev !acc

let spawn_args str =
  let acc = ref [] in
  let v =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply (f, args) when is_spawn_ident f ->
            List.iter
              (fun ((lbl : Ppxlib.arg_label), a) ->
                match lbl with
                | Nolabel -> acc := a :: !acc
                | Labelled _ | Optional _ -> ())
              args
        | _ -> ());
        super#expression e
    end
  in
  v#structure str;
  List.rev !acc

let referenced_names (e : Ppxlib.expression) =
  let acc = ref [] in
  let v =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt = Lident x; _ } ->
            if not (List.mem x !acc) then acc := x :: !acc
        | _ -> ());
        super#expression e
    end
  in
  v#expression e;
  !acc

(* Names reachable from the seeds through binding bodies: the intra-file
   call-graph closure that makes "spawn context" cover helpers like
   worker -> run_job -> drain/process. *)
let reachable bindings seeds =
  let rec go seen frontier =
    match frontier with
    | [] -> seen
    | name :: rest ->
        if List.mem name seen then go seen rest
        else
          let next =
            List.concat_map
              (fun (n, body) ->
                if String.equal n name then referenced_names body else [])
              bindings
          in
          let next = List.filter (fun n -> List.mem_assoc n bindings) next in
          go (name :: seen) (next @ rest)
  in
  go [] seeds

(* ------------------------------------------------------------------ *)
(* Per-chunk collection *)

type raw = {
  r_root : string;
  r_key : string;
  r_kind : kind;
  r_indexed : bool;
  r_loc : Ppxlib.Location.t;
  r_off : int;
}

let nth_nolabel args n =
  let rec go i = function
    | [] -> None
    | ((lbl : Ppxlib.arg_label), a) :: rest -> (
        match lbl with
        | Nolabel -> if i = n then Some a else go (i + 1) rest
        | Labelled _ | Optional _ -> go i rest)
  in
  go 0 args

(* One traversal gathers raw accesses, creation-bound local names and the
   offsets of the synchronization idents; flags are resolved after. The
   walker does not descend into nested chunk bodies (indexed function
   bindings, spawn arguments) — those are collected on their own. *)
let collect_chunk ~fbs ~mutflds node =
  let raws = ref [] in
  let fresh = ref [] in
  let locks = ref [] in
  let unlocks = ref [] in
  let joins = ref [] in
  let signals = ref [] in
  let off (l : Ppxlib.Location.t) = l.loc_start.pos_cnum in
  let add_raw ~root ~key ~kind ~indexed (loc : Ppxlib.Location.t) =
    raws :=
      {
        r_root = root;
        r_key = key;
        r_kind = kind;
        r_indexed = indexed;
        r_loc = loc;
        r_off = off loc;
      }
      :: !raws
  in
  let record (e : Ppxlib.expression) =
    match e.pexp_desc with
    | Pexp_setfield (b, { txt; _ }, _) -> (
        match root_of b with
        | Some (r, fs) ->
            add_raw ~root:r
              ~key:(key_of (r, fs @ [ last_of (path_of txt) ]))
              ~kind:Write ~indexed:false e.pexp_loc
        | None -> ())
    | Pexp_field (b, { txt; _ }) -> (
        let f = last_of (path_of txt) in
        if List.mem f mutflds then
          match root_of b with
          | Some (r, fs) ->
              add_raw ~root:r
                ~key:(key_of (r, fs @ [ f ]))
                ~kind:Read ~indexed:false e.pexp_loc
          | None -> ())
    | Pexp_ident { txt; loc } -> (
        match mod_member txt with
        | Some ("Mutex", "lock") -> locks := off loc :: !locks
        | Some ("Mutex", "unlock") -> unlocks := off loc :: !unlocks
        | Some ("Domain", "join") -> joins := off loc :: !joins
        | Some ("Condition", ("signal" | "broadcast")) ->
            signals := off loc :: !signals
        | Some _ | None -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match classify_call txt with
        | Some (_, _, k, indexed, argn) -> (
            match nth_nolabel args argn with
            | Some a -> (
                match root_of a with
                | Some rf ->
                    add_raw ~root:(fst rf) ~key:(key_of rf) ~kind:k ~indexed
                      a.pexp_loc
                | None -> ())
            | None -> ())
        | None -> ())
    | _ -> ()
  in
  let v =
    object (self_)
      inherit Ppxlib.Ast_traverse.iter as super

      method! value_binding vb =
        match binder_name vb.pvb_pat with
        | Some name
          when is_function vb.pvb_expr && List.mem_assoc name fbs ->
            (* a chunk of its own; don't cross into it *)
            self_#pattern vb.pvb_pat
        | b ->
            (match b with
            | Some name when is_creation vb.pvb_expr ->
                if not (List.mem name !fresh) then fresh := name :: !fresh
            | Some _ | None -> ());
            super#value_binding vb

      method! expression e =
        match e.pexp_desc with
        | Pexp_apply (f, _) when is_spawn_ident f ->
            (* spawn arguments are their own Worker chunks *)
            self_#expression f
        | _ ->
            record e;
            super#expression e
    end
  in
  (match node with
  | `Structure str -> v#structure str
  | `Expression e -> v#expression e);
  ( List.rev !raws,
    !fresh,
    (!locks, !unlocks, !joins, !signals) )

let finalize ~side (raws, fresh, (locks, unlocks, joins, signals)) =
  let last_join = List.fold_left (fun a b -> if b > a then b else a) (-1) joins in
  List.filter_map
    (fun r ->
      let drop =
        match side with Worker -> List.mem r.r_root fresh | Coordinator -> false
      in
      if drop then None
      else
        Some
          {
            root = r.r_root;
            key = r.r_key;
            kind = r.r_kind;
            indexed = r.r_indexed;
            side;
            locked =
              List.exists (fun l -> l < r.r_off) locks
              && List.exists (fun u -> u > r.r_off) unlocks;
            post_join =
              (match side with
              | Coordinator -> last_join >= 0 && r.r_off > last_join
              | Worker -> false);
            post_signal =
              (match side with
              | Worker -> List.exists (fun s -> s < r.r_off) signals
              | Coordinator -> false);
            loc = r.r_loc;
            offset = r.r_off;
          })
    raws

(* ------------------------------------------------------------------ *)

let count_spawns str =
  let n = ref 0 in
  let v =
    object
      inherit Ppxlib.Ast_traverse.iter as super

      method! expression e =
        if is_spawn_ident e then incr n;
        super#expression e
    end
  in
  v#structure str;
  !n

let analyse str =
  let spawns = count_spawns str in
  if spawns = 0 then { spawns = 0; accesses = []; worker_bodies = [] }
  else begin
    let mutflds = mutable_fields str in
    let fbs = function_bindings str in
    let args = spawn_args str in
    let seeds =
      List.filter
        (fun n -> List.mem_assoc n fbs)
        (List.concat_map referenced_names args)
    in
    let workers = reachable fbs seeds in
    let worker_bodies =
      args
      @ List.filter_map
          (fun (n, b) -> if List.mem n workers then Some b else None)
          fbs
    in
    let chunk side node = finalize ~side (collect_chunk ~fbs ~mutflds node) in
    let accesses =
      chunk Coordinator (`Structure str)
      @ List.concat_map
          (fun (n, b) ->
            let side =
              if List.mem n workers then Worker else Coordinator
            in
            chunk side (`Expression b))
          fbs
      @ List.concat_map (fun a -> chunk Worker (`Expression a)) args
    in
    { spawns; accesses; worker_bodies }
  end
