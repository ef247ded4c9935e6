(** The operation kernel: one code path per operation for message-passing
    counters.

    A protocol supplies only what is specific to it — its payload, its
    state built over the network, a message handler and a [start] that
    issues an operation's first send — and {!Make} derives the whole
    {!Counter_intf.CONCURRENT} surface from that, plus batch injection.
    Every way of running an operation (sequential {!Counter_intf.S.inc},
    open-loop [launch_at]/[run_open], {!Make.run_batch}) goes through the
    same [start] and the same completion sink, so the protocol cannot
    behave differently on one path than on another.

    The kernel owns what used to be copied into every counter: operation
    ids, the completion record, typed stall reasons, [value] (= completed
    operations), input checks, and [clone] with the handler re-installed
    over the copied state. *)

type 'payload ctx
(** What a protocol instance sees of the kernel: its network and the sink
    for operation outcomes. *)

val net : 'payload ctx -> 'payload Sim.Network.t

val complete : 'payload ctx -> op:int -> value:int -> unit
(** Operation [op]'s value reached its origin now. Every call is recorded:
    a value delivered twice (duplication faults) completes twice, and
    sequential [inc] returns the first. *)

val stall : 'payload ctx -> op:int -> string -> unit
(** Operation [op] gave up for the given reason; a sequential [inc] of
    [op] raises {!Counter_intf.Stall} with it. *)

module type PROTOCOL = sig
  type payload

  type config
  (** Construction parameters beyond [n] (a width, a window, a balancer
      network, ...). *)

  type state

  val name : string

  val describe : string

  val supported_n : int -> int

  val label : payload -> string

  val default : n:int -> config
  (** The configuration [create] uses. *)

  val init : payload ctx -> n:int -> config -> state
  (** Fresh state over the context's network. Raises [Invalid_argument]
      for an unsupported [n] or configuration. *)

  val handle : state -> self:int -> src:int -> payload -> unit

  val start : state -> op:int -> origin:int -> unit
  (** Run operation [op] from [origin] now. The first send goes out
      directly, not through a timer, so a sequential operation's schedule
      (and a model checker's choice points) is exactly the protocol's own.
      The outcome is reported later through {!complete} or {!stall}. *)

  val settle : state -> unit
  (** Called each time the kernel has drained the network to quiescence
      (after every sequential operation, batch and [run_open]). *)

  val no_value : string
  (** Stall reason for an operation that quiesced with neither a value
      nor a {!stall}: a crashed host or a lost message. *)

  val copy : payload ctx -> state -> state
  (** Deep copy of a quiescent state over a cloned network's context. *)
end

module Make (P : PROTOCOL) : sig
  include Counter_intf.CONCURRENT

  val create_with :
    ?seed:int ->
    ?delay:Sim.Delay.t ->
    ?faults:Sim.Fault.t ->
    n:int ->
    P.config ->
    t
  (** {!Counter_intf.S.create} with an explicit configuration. *)

  val state : t -> P.state

  val run_batch : t -> origins:int list -> (int * int) list
  (** Start one operation per origin at the current instant, all
      concurrently, as one traced operation; drain and return
      [(origin, value)] for every completion, in completion order.
      Raises [Invalid_argument] on an empty batch, an origin out of range
      or an origin listed twice. *)

  val run_batch_timed :
    t -> ?stagger:float -> origins:int list -> unit -> History.op list
  (** {!run_batch} with operation [i] injected [i * stagger] after the
      current instant (default [0.]: all at once) and full
      invocation/completion intervals, in completion order. *)
end
