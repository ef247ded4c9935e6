(** Discrete-event asynchronous message-passing network.

    This is the paper's model (Section 2): [n] processors uniquely
    identified by the integers [1 .. n], every pair can exchange messages
    directly, no shared memory, and a message arrives an unbounded but
    finite time after it was sent (here: a {!Delay} sample on a
    deterministic {!Rng} stream). Message handling is event-driven: the
    engine pops the earliest pending delivery, charges the receive to the
    destination processor's {!Metrics}, records it on the active {!Trace}
    (if an operation is open), and invokes the protocol handler, which may
    send further messages.

    The paper additionally assumes "no failures whatsoever occur"; the
    engine honours that by default, and steps outside it only when a
    {!Fault} plan is supplied at creation (see docs/FAULTS.md): crash-stop
    processors, message drops and duplications sampled from the network's
    own {!Rng} stream, and healing partitions. With [Fault.none] the fault
    layer makes zero draws and runs are bit-identical to a fault-free
    engine.

    One network instance hosts one protocol. Protocols with different
    message types instantiate their own ['msg t]. *)

type 'msg t

(** {1 Pluggable delivery scheduling}

    The engine's default policy — deliver the earliest pending event, in
    (arrival time, send order) — is only one resolution of the model's
    asynchrony. A {!policy} replaces it: at every step the engine
    enumerates the {e enabled} events and asks the policy which happens
    next. Enabled events are the oldest pending message of each distinct
    (src, dst) link (per-link FIFO; branching {e across} links is where
    all the adversarial power lies), plus — when local timers are armed —
    a single choice standing for the earliest-armed timer (timers keep
    their mutual arming order; they interleave freely with deliveries).
    A destination declared {e unordered} (see {!declare_unordered})
    relaxes the per-link FIFO on its inbound links: {e every} pending
    message to it is individually enabled, named by a stable per-link
    send ordinal — how the model checker reorders retried store RPCs
    past their originals. The choice array is canonically ordered (links
    ascending by (src, dst, ordinal), the timer choice last), so a run
    under a scheduler is a pure function of the decision sequence: no
    delay is sampled, no Rng draw is made, and the clock advances by
    exactly 1 per event.

    This is the hook the delivery-interleaving model checker
    ({!Mc.Explore}) is built on; see docs/MODELCHECK.md. *)

type choice = {
  link_src : int;
  link_dst : int;
  link_seq : int;
      (** per-link send ordinal when [link_dst] was declared unordered
          ({!declare_unordered}); [-1] on FIFO links and the timer
          pseudo-choice *)
  link_tag : string;
}
(** One enabled event: a message on link [(link_src, link_dst)] whose
    payload renders as [link_tag], or the timer pseudo-choice
    [{0, 0, -1, "timer"}]. *)

type decision =
  | Deliver_next of int
      (** Deliver the choice at this index of the enabled array. *)
  | Crash_now of int
      (** Crash-stop this processor between deliveries, then ask again —
          how fault events are interleaved adversarially. *)
  | Recover_now of int
      (** Revive this (crashed) processor between deliveries, then ask
          again — how the model checker interleaves [recover:P@T]
          revivals with deliveries. *)
  | Byz_now of int
      (** Turn this processor Byzantine between deliveries, then ask
          again — how the model checker interleaves the corruption
          onset with deliveries. The rewrite rule still comes from the
          network's fault plan ([byzval]). *)

type policy = choice array -> decision
(** Called with a non-empty enabled array each time the engine must pick
    the next event. *)

val with_scheduler : policy -> (unit -> 'a) -> 'a
(** [with_scheduler p f] runs [f] with [p] installed as the ambient
    default policy: every network {!create}d during [f] is born in
    scheduler mode. This is how a model checker drives counters that
    construct their own networks internally, without widening every
    counter's [create] signature. The previous ambient policy is
    restored on exit (exceptions included). *)

val set_scheduler : 'msg t -> policy -> unit
(** Install a policy on an existing network. Raises [Failure] if heap
    events are already pending (the two queues cannot be mixed). *)

val has_scheduler : 'msg t -> bool

val declare_unordered : 'msg t -> int -> unit
(** Relax per-link FIFO for deliveries {e into} this processor under a
    scheduler: every pending message to it becomes individually enabled,
    keyed by a stable per-link send ordinal ([choice.link_seq]). Durable
    protocols declare their store processor unordered so the checker can
    interleave a retried RPC past the original it duplicates — the
    reorderings compare-and-swap exists to survive. No effect on the
    timed (heap) engine, whose order the delay model already decides. *)

exception
  Storm of { max_steps : int; pending : int; now : float; deliveries : int }
(** Raised by {!run_to_quiescence} when the step guard trips: [pending]
    events were still queued at virtual time [now] after [deliveries]
    total deliveries — a protocol bug generating an infinite message
    storm, caught after [max_steps] steps. *)

val create :
  ?seed:int ->
  ?delay:Delay.t ->
  ?label:('msg -> string) ->
  ?bits:('msg -> int) ->
  ?fifo:bool ->
  ?faults:Fault.t ->
  ?corrupt:
    (rule:Fault.byz_rule ->
    equivocate:bool ->
    src:int ->
    dst:int ->
    'msg ->
    'msg) ->
  ?shards:int ->
  n:int ->
  unit ->
  'msg t
(** [create ~n ()] builds a quiescent network of processors [1 .. n].
    [seed] (default 0xC0FFEE) seeds the private random stream; [delay]
    (default {!Delay.default}) is the latency model; [label] renders
    payloads for traces (default: ["msg"]); [bits] measures payload sizes
    for the message-length accounting of {!total_bits} /
    {!max_message_bits} (default: messages are unmeasured, size 0);
    [fifo] (default false) makes each directed (src, dst) link deliver in
    send order even under reordering delay models — the TCP-like
    assumption many protocols quietly rely on. The paper's model does
    not require it and neither do our protocols (tested both ways).
    [faults] (default {!Fault.none}) is the deterministic fault plan:
    crash triggers apply between deliveries, per-message drop and
    duplication decisions draw from the network's own random stream, and
    partition cuts are evaluated at send time. Raises [Invalid_argument]
    if the plan fails {!Fault.validate}.

    [corrupt] is the protocol's Byzantine payload rewriter: once a [byz]
    trigger fires for a sender with a [byzval] rule, every payload it
    sends passes through
    [corrupt ~rule ~equivocate ~src ~dst payload] (typically delegating
    the integer field to {!Fault.apply_rule}). It must be pure — the
    Byzantine path makes zero Rng draws. Returning the payload
    {e physically unchanged} means "this message kind carries nothing
    corruptible" and is not charged to {!Metrics.corruptions}. Raises
    [Invalid_argument] when the plan carries [byzval] rules but no
    [corrupt] was supplied: the network cannot rewrite an opaque
    payload, and running such a plan honestly would be worse than
    refusing.

    [shards] (default: the ambient count installed by {!with_shards},
    itself defaulting to 1) splits the event queue into that many
    per-block heaps, processors partitioned into contiguous id blocks.
    Dispatch stays single-threaded; what sharding buys here is the
    storage layout of {!Par}'s multi-domain engine under the sequential
    dispatcher, so the CLI's [--sim-domains] flag exercises the sharded
    structures on {e every} counter. Events are keyed by one
    network-global send sequence, so the merged delivery order — and
    every {!Metrics.checksum} — is bit-identical for any shard count,
    all delay models and all fault plans. Counts above [n] are clamped
    to [n]. *)

val with_shards : int -> (unit -> 'a) -> 'a
(** [with_shards s f] runs [f] with [s] installed as the ambient default
    shard count: every network {!create}d during [f] without an explicit
    [?shards] is born with [s] event-queue shards. Same pattern (and same
    motivation) as {!with_scheduler}; the previous count is restored on
    exit, exceptions included. Raises [Invalid_argument] when [s < 1]. *)

val shards : 'msg t -> int
(** Number of event-queue shards this network was created with (after
    clamping to [n]). *)

val set_handler : 'msg t -> (self:int -> src:int -> 'msg -> unit) -> unit
(** Install the protocol: [handler ~self ~src msg] runs when processor
    [self] receives [msg] from [src]. Must be installed before the first
    {!step}. The handler may call {!send}. *)

val n : 'msg t -> int

val rng : 'msg t -> Rng.t
(** The network's private random stream (shared with delay sampling; draw
    from a {!Rng.split} of it if the protocol needs its own stream). *)

val now : 'msg t -> float
(** Current virtual time. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a message. Charges a send to [src] immediately; the receive is
    charged to [dst] at delivery. [src] and [dst] may be any positive ids
    (ids above [n] model hired replacement processors and are tracked by
    {!Metrics.overflow_processors}). Self-sends are allowed and still cost
    two message charges — a processor talking to itself over the network
    pays for it, which protocols avoid by handling locally instead.

    Under an active fault plan: a send from a crashed processor is
    suppressed (no send charge — it never happened); a message crossing an
    active partition cut, or losing its drop coin-flip, is charged to the
    sender but never delivered; a message winning the duplication
    coin-flip is delivered twice (each copy's receive charged at
    delivery). All losses and duplications count in {!Metrics.dropped} /
    {!Metrics.duplicated} and annotate the open trace. *)

val schedule_local : 'msg t -> delay:float -> (unit -> unit) -> unit
(** Schedule a local timer: [callback] runs at [now + delay]. Timers model
    a processor consulting its own clock (combining windows, prism
    timeouts) — they are not messages, so they charge no load and appear
    in no trace. The engine stays non-quiescent until all timers fired. *)

val pending : 'msg t -> int
(** Number of undelivered messages and unfired timers. *)

val step : 'msg t -> bool
(** Deliver the earliest pending message. Returns [false] if none pending. *)

val run_to_quiescence : ?max_steps:int -> 'msg t -> int
(** Deliver until no message is pending; returns the number of steps
    taken. Raises {!Storm} — carrying the pending count, virtual time and
    delivery total — after [max_steps] (default 100 million) steps, a
    guard against protocol bugs that generate infinite message storms. *)

val metrics : 'msg t -> Metrics.t

val faults : 'msg t -> Fault.t
(** The fault plan this network was created with ({!Fault.none} if none). *)

val crashed : 'msg t -> int -> bool
(** Whether a processor has crash-stopped (by plan trigger or {!crash}). *)

val crash : 'msg t -> int -> unit
(** Crash-stop a processor immediately: from now on its handler never
    runs, messages to it are lost, and sends from it are suppressed.
    Idempotent. Counted in {!Metrics.crashes} and annotated on the open
    trace. Works even on a network created without a fault plan. *)

val recover : 'msg t -> int -> unit
(** Revive a crashed processor immediately (the [recover:P@T] clause calls
    this when virtual time reaches [T]): its handler runs again and
    messages flow to and from it. A no-op when the processor is not
    currently down. Counted in {!Metrics.recoveries} and annotated on the
    open trace. Recovery restores {e delivery}, not state: any protocol
    role the processor held when it crashed is gone, and failure-aware
    protocols must return it to their spare pool rather than let it resume
    a stale role (see {!recovered_processors}). Messages that were already
    dropped while it was down stay dropped. *)

val recovered : 'msg t -> int -> bool
(** Whether a processor has recovered at least once (it may have crashed
    again since — check {!crashed}). *)

val ever_crashed : 'msg t -> int -> bool
(** Whether a processor has crashed at any point: currently down, or alive
    again after a recovery. Failure-aware protocols use this to refuse to
    trust state a processor held before its first crash. *)

val recovered_processors : 'msg t -> int list
(** Processors that have recovered and are currently alive, ascending —
    the rejoin pool a failure-aware allocator draws fresh workers from. *)

val byzantine : 'msg t -> int -> bool
(** Whether a processor has turned Byzantine (by plan trigger or
    {!make_byzantine}). There is no way back. *)

val make_byzantine : 'msg t -> int -> unit
(** Turn a processor Byzantine immediately (the [byz:P@T] clause calls
    this when its trigger fires; the model checker's [Byz_now] decision
    calls it between deliveries). From now on every payload the
    processor sends is rewritten by the [corrupt] hook according to its
    [byzval] rule — with no rule (or no hook) it keeps sending honest
    payloads, which measures pure detection overhead. Idempotent.
    Counted in {!Metrics.byzantine} and annotated on the open trace. *)

val byzantine_processors : 'msg t -> int list
(** Processors currently Byzantine, ascending. *)

val recoveries_of : 'msg t -> int -> int
(** Number of completed revivals of this processor (0 if it never
    recovered). Durable protocols compare this against a remembered
    value to detect "I am running again after a crash" at the first
    delivery that reaches them post-revival, and trigger WAL recovery
    instead of resuming amnesiac state. *)

val total_bits : 'msg t -> int
(** Sum of payload sizes of all sent messages (per the [bits] function
    given at {!create}). *)

val max_message_bits : 'msg t -> int
(** Largest single payload seen — the paper's "messages as short as
    O(log n) bits" claim is checked against this. *)

val begin_op : 'msg t -> origin:int -> unit
(** Open an operation trace attributed to [origin]. Subsequent deliveries
    are recorded until {!end_op}. Raises if an operation is already open. *)

val end_op : 'msg t -> Trace.t
(** Close the open operation and return its trace. The trace also goes to
    the observer when one is installed ({!observe}), and otherwise into
    the network's log ({!traces}). Raises if none open. *)

val observe : 'msg t -> (Trace.t -> unit) -> unit
(** [observe t f] hands every trace closed from now on to [f] instead of
    the log, which stops growing; what it already holds stays. A later
    call replaces [f]. *)

val traces : 'msg t -> Trace.t list
(** The logged traces, chronological: every operation closed while no
    observer was installed. *)

val in_op : 'msg t -> bool

val deliveries : 'msg t -> int
(** Total deliveries since creation. *)

val clone_quiescent : 'msg t -> 'msg t
(** Deep copy of a quiescent network (no pending messages, no open
    operation): same metrics counts, clock, random-stream position and
    operation counter, so the clone's future behaviour matches what the
    original's would be. The protocol handler is NOT carried over — the
    protocol must install a fresh handler (closing over its own cloned
    state) via {!set_handler}. The trace log is carried over (shared, not
    copied) but the observer is not: the clone logs its own operations.
    Raises [Failure] if messages are pending or an operation is open. *)
