(** The distributed-counter abstract data type (Section 2 of the paper).

    A distributed counter encapsulates an integer value [val] and supports
    one operation, [inc]: for any processor, [inc] returns the current
    counter value to the requesting processor and increments the counter by
    one (test-and-increment). Following the paper's model we assume enough
    time elapses between two [inc] requests that the preceding operation's
    process has finished before the next one starts; implementations run
    each operation's message exchange to quiescence before returning.

    Implementations own a {!Sim.Network} instance, so per-processor message
    loads and per-operation traces come for free and are comparable across
    counters.

    The paper assumes no failures; counters honour that by default. When a
    {!Sim.Fault} plan is supplied at creation, an operation may instead
    {e stall}: the process reaches quiescence without delivering a value
    (a crashed worker, a lost message). Stalls are a typed outcome
    ({!Stalled}), never a hang and never an untyped exception. *)

exception Stall of string
(** Raised by [inc] when the operation's process reached quiescence
    without returning a value — only possible under an active fault plan.
    The string says what was detected ("holder crashed", "no value
    returned", ...). The counter stays quiescent and usable: later
    operations from surviving processors may still complete. *)

type outcome = Completed of int | Stalled of string
(** Result of one increment under faults: the value returned, or the
    stall reason. *)

let result_of_inc f =
  match f () with v -> Completed v | exception Stall reason -> Stalled reason

let outcome_value = function Completed v -> Some v | Stalled _ -> None

let pp_outcome ppf = function
  | Completed v -> Format.fprintf ppf "%d" v
  | Stalled reason -> Format.fprintf ppf "stalled(%s)" reason

module type S = sig
  type t

  val name : string
  (** Short stable identifier ("central", "retire-tree", ...). *)

  val describe : string
  (** One-line human description, shown by the CLI and benches. *)

  val supported_n : int -> int
  (** [supported_n n] rounds a requested network size up to the nearest
      size the construction supports (e.g. [k^(k+1)] for the paper's tree,
      a power of two for counting networks, a square for grids). The result
      is always [>= max 1 n]. *)

  val create :
    ?seed:int -> ?delay:Sim.Delay.t -> ?faults:Sim.Fault.t -> n:int -> unit -> t
  (** Build the counter for exactly [n] processors; callers should pass a
      value accepted by {!supported_n} (implementations raise
      [Invalid_argument] otherwise). [seed] makes runs reproducible.
      [faults] (default {!Sim.Fault.none}) is the deterministic fault
      plan handed to the underlying {!Sim.Network}; with [Fault.none]
      behaviour is bit-identical to a counter built without the
      parameter. *)

  val n : t -> int
  (** Number of processors. *)

  val inc : t -> origin:int -> int
  (** [inc t ~origin] performs one test-and-increment initiated by
      processor [origin] (in [1 .. n t]), runs the resulting process to
      quiescence, and returns the value the counter had. Raises {!Stall}
      if the process quiesced without producing a value (possible only
      under an active fault plan); the counter remains usable. *)

  val inc_result : t -> origin:int -> outcome
  (** {!inc} with the stall folded into a typed result — what fault
      experiments consume. *)

  val crashed : t -> int -> bool
  (** Whether processor [p] has crash-stopped in the underlying network
      (always [false] without a fault plan). Schedulers use this to route
      operations around dead origins. *)

  val value : t -> int
  (** Current counter value = number of completed [inc]s. *)

  val metrics : t -> Sim.Metrics.t
  (** Cumulative per-processor message loads. *)

  val traces : t -> Sim.Trace.t list
  (** Traces of the completed operations, chronological — all of them
      unless {!observe} was called, in which case only those completed
      before the call. Kept by the counter's {!Sim.Network}
      ({!Sim.Network.traces}). *)

  val observe : t -> (Sim.Trace.t -> unit) -> unit
  (** [observe t f] hands the trace of every operation completed from now
      on to [f], once, in order, and stops retaining them: {!traces} no
      longer grows. Streaming consumers ({!Driver.run}, the lower-bound
      adversary) use this to run in memory independent of the number of
      operations. A later call replaces [f]. *)

  val clone : t -> t
  (** Deep copy of the quiescent counter state (same future behaviour).
      Used by the lower-bound adversary to evaluate hypothetical
      operations without committing them. The clone starts with the
      original's {!traces} but not with its observer: it retains its own
      later traces until {!observe} is called on it, so trial operations
      on a clone never reach the original's observer. *)
end

type counter = (module S)

(** {1 Open-loop concurrency}

    The paper's "enough time elapses between operations" assumption is
    what {!S.inc}'s run-to-quiescence encodes. A counter that can absorb
    genuine overlap additionally implements [CONCURRENT]: operations are
    {e injected} at arrival times drawn from an open-loop process
    ({!Sim.Arrivals}) without waiting for earlier operations, and
    completions are matched back by an explicit operation id — an origin
    may have many operations in flight at once, so origin alone cannot
    pair requests with replies.

    Protocol contract: {!CONCURRENT.launch_at} is called once per
    operation, in non-decreasing [at] order with distinct [op] ids
    [>= 0], all before {!CONCURRENT.run_open}; it raises
    [Invalid_argument] at the call for an origin outside [1 .. n], a
    negative [op] or an arrival in the past. A genuinely concurrent
    protocol schedules each injection as a local timer on its own
    network and lets one {!Sim.Network.run_to_quiescence} drain
    everything — the message-passing baselines get exactly that from
    {!Kernel.Make}, which runs sequential [inc], [launch_at] and batches
    through one protocol [start], so an operation behaves the same on
    every path. A serialising protocol (the paper's retire tree) may
    instead process each arrival synchronously inside [launch_at] —
    queueing delay then shows up in its completion times, which is
    exactly the honest cost of serialisation. Per-operation traces are
    not recorded in this mode (trace bracketing assumes one operation at
    a time); metrics still accumulate, and {!S.value} counts completed
    operations on every path. *)

module type CONCURRENT = sig
  include S

  val launch_at : t -> op:int -> origin:int -> at:float -> unit
  (** Inject operation [op] from [origin] at virtual time [at]
      (monotone across calls; [at >=] the network's current time). *)

  val run_open : t -> unit
  (** Drain the network: every launched operation either completes or —
      under an active fault plan — is abandoned. *)

  val completions : t -> (int * int * float) list
  (** [(op, value, completed_at)] for every completed open-loop
      operation, in completion order. Operations launched but absent
      here were lost to faults. *)
end

type concurrent = (module CONCURRENT)
