// Package dist is the round-synchronous message-passing simulator the
// library's distributed algorithms (internal/distalgo) run on.  It implements
// the standard synchronous models of distributed computing used by the paper
// (§2): LOCAL, CONGEST and CONGEST_BC.
//
// # Execution model
//
// A protocol is a factory assigning a Node to every vertex of a graph.  The
// runner first calls Init on every node (round 0); a node may already send
// messages there.  Then rounds 1, 2, ... are executed: every node receives
// the messages its neighbors sent in the previous round (as an []Inbound,
// ordered by sender id) and takes one step via Round.  All node steps of a
// round are logically simultaneous; the runner fans them out across a worker
// pool (Options.Workers) but the observable behavior is identical for every
// worker count.
//
// The run terminates at the end of the first round in which no node sent a
// message and every node that implements Halter reports Done.  Nodes that do
// not implement Halter are treated as always done, so a protocol of such
// nodes simply runs until global quiescence.  A protocol that neither
// quiesces nor halts is cut off with ErrMaxRounds after Options.MaxRounds
// rounds.
//
// # Models and bandwidth
//
// Local places no restriction on communication.  Congest restricts every
// vertex to one message per incident edge per round; CongestBC further
// restricts it to a single broadcast per round (the same message on every
// incident edge), which is the model all of the paper's CONGEST-style
// results use.  In both Congest models the per-message size limit of
// Options.Bandwidth (in O(log n)-bit words, as reported by Message.Words) is
// enforced at send time; exceeding it aborts the run with
// ErrMessageTooLarge.  The paper's protocols keep message sizes bounded by a
// constant that depends on the graph class and radius but is not known to
// the simulator, so Bandwidth = 0 means "track but do not limit": sizes are
// still accounted in Stats (Words, MaxMessageWords) for congestion reports.
//
// See DESIGN.md §2 for the full semantics and the model table.
package dist

import "errors"

// Model selects the communication model of a run.
type Model int

const (
	// Local is the LOCAL model: unbounded messages, any number per edge.
	Local Model = iota
	// Congest is the CONGEST model: one bandwidth-limited message per
	// incident edge per round (point-to-point sends or one broadcast).
	Congest
	// CongestBC is the CONGEST_BC (broadcast congest) model: a single
	// bandwidth-limited broadcast per vertex per round, no point-to-point
	// sends.
	CongestBC
)

// String returns the conventional name of the model.
func (m Model) String() string {
	switch m {
	case Local:
		return "LOCAL"
	case Congest:
		return "CONGEST"
	case CongestBC:
		return "CONGEST_BC"
	default:
		return "Model(?)"
	}
}

func (m Model) valid() bool { return m == Local || m == Congest || m == CongestBC }

// Options tunes a simulator run.  The zero value selects sensible defaults.
type Options struct {
	// Workers bounds the number of goroutines used to step nodes within a
	// round (0 = GOMAXPROCS).  The result of a run does not depend on it.
	Workers int
	// MaxRounds aborts runaway protocols with ErrMaxRounds (0 = a generous
	// default derived from the graph size).
	MaxRounds int
	// Bandwidth is the maximum message size in words for the Congest and
	// CongestBC models (0 = unlimited; sizes are still tracked in Stats).
	// It is ignored in the Local model.
	Bandwidth int
	// Phase labels the run in the simulator metrics (bedom_dist_*): the
	// pipeline stage this run implements, e.g. "wreach" or "election".
	// internal/distalgo tags each of its stages; an empty phase is recorded
	// under the empty label value.
	Phase string
	// Probe, when non-nil, records a per-round profile and a per-vertex
	// congestion table for every run (see probe.go).  A nil Probe costs
	// nothing; an enabled one never changes the run's observable behavior
	// or its Stats, and every profile field except wall-clock durations is
	// independent of Workers.
	Probe *Probe
}

// Message is the interface of everything sent between nodes.  Words reports
// the message size in O(log n)-bit machine words (one word per vertex id or
// small integer), the unit of the CONGEST bandwidth accounting.  Messages
// must be treated as immutable once sent: the same value is delivered to
// every receiver of a broadcast, and the runner never writes it.  A message
// sent in round t is delivered in round t+1, so a protocol whose receivers
// copy out what they keep may reuse the message's storage from round t+2.
type Message interface {
	Words() int
}

// IntMessage is the single-word message: one integer of O(log n) bits.
type IntMessage int

// Words implements Message: an IntMessage is exactly one word.
func (IntMessage) Words() int { return 1 }

// Inbound is one received message together with its sender.
type Inbound struct {
	// From is the id of the sending neighbor.
	From int
	// Msg is the delivered message.
	Msg Message
}

// Node is the per-vertex protocol state machine.  Init is called once before
// the first round (it may already send); Round is called once per round with
// the messages received from the previous round, ordered by sender id
// (broadcasts before point-to-point messages per sender, sends in order).
// The inbox slice is only valid for the duration of the call — the runner
// refills its backing array for the next vertex the same worker steps — so
// a node that needs messages later must copy the Inbound values.  Whether
// the Message contents may be kept beyond the call is up to the protocol
// (see Message): the library's protocols reuse their send buffers, so
// their receivers copy out what they keep.
type Node interface {
	Init(*Context)
	Round(*Context, []Inbound)
}

// Halter is the optional halting interface of a Node: the runner terminates
// only when every halter is done and no messages were sent in the round (so
// none are in flight).  It is consulted after every Round call.
type Halter interface {
	Done() bool
}

// Stats reports the communication cost of a run.  The JSON field names are
// part of the /debug/dist/runs wire format served by domserved.
type Stats struct {
	// Rounds is the number of executed rounds (Init is round 0 and not
	// counted).
	Rounds int `json:"rounds"`
	// Messages is the total number of point-to-point deliveries: a broadcast
	// to d neighbors counts d messages.
	Messages int64 `json:"messages"`
	// Words is the total number of delivered words (message sizes summed
	// over deliveries).
	Words int64 `json:"words"`
	// MaxMessageWords is the size of the largest delivered message, in
	// words.  (A message broadcast by an isolated vertex crosses no edge
	// and congests nothing, so it is not accounted here.)
	MaxMessageWords int `json:"max_message_words"`
}

// Errors returned by Runner.Run.  Violations are detected at send time and
// reported wrapped, with the offending vertex and round; use errors.Is to
// test for them.
var (
	// ErrMaxRounds reports that the protocol neither quiesced nor halted
	// within the round budget.
	ErrMaxRounds = errors.New("dist: maximum round count exceeded")
	// ErrMessageTooLarge reports a message exceeding Options.Bandwidth in a
	// Congest model.
	ErrMessageTooLarge = errors.New("dist: message exceeds the model bandwidth")
	// ErrModelViolation reports an operation the model forbids (a
	// point-to-point Send or a second broadcast in CongestBC, a second
	// message on an edge in Congest).
	ErrModelViolation = errors.New("dist: operation not allowed in this model")
	// ErrBadSendTarget reports a Send to a vertex that is not a neighbor.
	ErrBadSendTarget = errors.New("dist: send target is not a neighbor")
	// ErrBadModel reports an unknown Model value.
	ErrBadModel = errors.New("dist: unknown communication model")
	// ErrRunnerReused reports a second Run on the same Runner.
	ErrRunnerReused = errors.New("dist: Runner.Run may only be called once")
)
