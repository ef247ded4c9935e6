(** Diffracting trees (Shavit & Zemach, SPAA 1994 — cited by the paper).

    A binary tree of toggle balancers whose leaves are [width] local
    counters; a token walks root to leaf, turning left/right by each
    node's toggle, and leaf [i]'s [c]-th token gets value [i + width*c]
    (a counting tree, which satisfies the step property). The diffracting
    twist is the {e prism} in front of every toggle: two tokens that meet
    at a node within a short window pair up and "diffract" — one goes
    left, the other right — without touching the toggle, which is correct
    because a pair leaves any toggle's state unchanged. Under load, most
    tokens diffract and the hot toggle is relieved; a lone token waits
    out the prism window (a local timer, not a message) and then toggles.

    Sequentially there is never a partner, so every token toggles and the
    root host carries Theta(n) messages — the diffracting tree needs
    concurrency to shine, which experiment E11 demonstrates via
    {!run_batch}: with [b] concurrent tokens the root's message load per
    token approaches 1 (pass-through) instead of 2 (toggle round trips
    are unchanged, but pairing halves the tokens that serialise on the
    toggle; we measure {!toggle_hits} and {!diffractions}). *)

type t

val create_width :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  ?prism_window:float ->
  n:int ->
  width:int ->
  unit ->
  t
(** [width] must be a power of two ([>= 1]); [prism_window] (default 1.5
    virtual-time units) is how long a lone token waits for a partner. *)

val width : t -> int

val toggle_hits : t -> int
(** Tokens that passed through a toggle (serialised on a node host). *)

val diffractions : t -> int
(** Token {e pairs} that diffracted (each relieves the toggle of two
    tokens). *)

val output_counts : t -> int array

val step_property_held : t -> bool
(** Step property over leaf counters, checked at each quiescent point. *)

val run_batch : t -> origins:int list -> (int * int) list
(** Launch all origins concurrently (each at most once); runs to
    quiescence and returns [(origin, value)] in completion order. Values
    are distinct and form a contiguous range, but are not linearizable —
    the E11 experiment checks exactly that. Counts as one traced
    operation. *)

val run_batch_timed :
  t -> ?stagger:float -> origins:int list -> unit -> Counter.History.op list
(** {!run_batch} with staggered injection and full intervals, for the
    E20 linearizability experiment. *)

include Counter.Counter_intf.CONCURRENT with type t := t
(** [create ~n] uses the same default width as the counting network
    (largest power of two [<= sqrt n]).

    Under open-loop load the prism actually pairs tokens (sequential
    dispatch never exercises it), but the per-leaf counters advance
    unevenly while tokens are in flight, so like the counting network
    the diffracting tree is quiescently consistent yet not linearizable
    under overlap. *)
