(* R2 — barrier publication.

   A round-based worker pool's happens-before edge is the Mutex-guarded
   round handshake: workers publish results (outboxes, per-worker stats),
   then take the round mutex, bump the done-count and Condition.signal the
   coordinator. A worker write that happens *after* its signal — and
   outside any mutex bracket — races the coordinator, which may already
   be reading the round's results. Position relative to the signal is
   resolved textually within the function, the same way a reviewer
   checks the handshake. *)

let check ctx str =
  let info = Dataflow.analyse str in
  List.iter
    (fun (a : Dataflow.access) ->
      let fires =
        (match a.Dataflow.side with Worker -> true | Coordinator -> false)
        && (match a.Dataflow.kind with Write -> true | Read -> false)
        && a.Dataflow.post_signal
        && not a.Dataflow.locked
      in
      if fires then
        Rule.emit ctx ~loc:a.Dataflow.loc ~rule:"R2"
          ~message:
            (Printf.sprintf
               "worker writes '%s' after the barrier handshake \
                (Condition.signal) — the coordinator may already be \
                reading it"
               a.Dataflow.key)
          ~hint:
            "publish every worker result before signalling round \
             completion, or take the round mutex around the late write")
    info.Dataflow.accesses

let rule =
  {
    Rule.id = "R2";
    name = "barrier-publication";
    summary =
      "worker results must be published before the round-barrier \
       signal; no post-barrier mutation";
    check;
  }
