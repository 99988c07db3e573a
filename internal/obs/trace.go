package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects the finished spans of one request.  cmd/domserved attaches
// a Trace (carrying the request's query ID) to the context in its HTTP
// middleware; the engine's stage spans append to it, and requests slower
// than the -slow-query threshold log the whole trace.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []SpanRecord
}

// SpanRecord is one finished span: the stage name, its start offset from the
// trace start, and its duration.
type SpanRecord struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// NewTrace returns a trace with the given query ID, started now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// Spans returns a copy of the finished spans, in End order.
func (t *Trace) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// String renders the trace compactly for log lines:
// "order@0.1ms+35.2ms wreach@35.4ms+3.1ms".
func (t *Trace) String() string {
	var b strings.Builder
	for i, s := range t.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%.1fms+%.1fms", s.Name, s.StartMS, s.DurMS)
	}
	return b.String()
}

func (t *Trace) add(name string, start time.Time, d time.Duration) {
	rec := SpanRecord{
		Name:    name,
		StartMS: float64(start.Sub(t.start)) / float64(time.Millisecond),
		DurMS:   float64(d) / float64(time.Millisecond),
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

type traceKey struct{}

// WithTrace attaches t to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// QueryID returns the context's query ID ("" when no trace is attached).
func QueryID(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.id
	}
	return ""
}

// Span is one timed stage.  Obtain it with Start; finish it with End.
type Span struct {
	trace *Trace
	name  string
	start time.Time
}

// Start begins a span named after the stage.  The span records into the
// context's trace (if any) when ended, and emits a debug-level slog line
// carrying the query ID — structured per-stage timing without a collector.
// The returned context is the input context (spans do not nest contexts);
// callers typically `_, sp := obs.Start(ctx, "order"); defer sp.End()`.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{trace: TraceFrom(ctx), name: name, start: time.Now()}
}

// End finishes the span and returns its duration (handy for feeding a
// histogram).  Safe on a zero span.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.trace != nil {
		s.trace.add(s.name, s.start, d)
		if slog.Default().Enabled(context.Background(), slog.LevelDebug) {
			slog.Debug("span", "query_id", s.trace.id, "stage", s.name,
				"dur_ms", float64(d)/float64(time.Millisecond))
		}
	}
	return d
}

// qidCounter disambiguates query IDs minted in the same process.
var qidCounter atomic.Uint64

// NewQueryID mints a short unique query ID: 6 random bytes plus a process
// counter, hex-encoded ("q-3f9a1c04d2b1-1f").  Random prefix first, so IDs
// from different processes never collide in aggregated logs.
func NewQueryID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; counter-only
		// IDs are still unique within the process.
		return fmt.Sprintf("q-%x", qidCounter.Add(1))
	}
	return "q-" + hex.EncodeToString(b[:]) + "-" + fmt.Sprintf("%x", qidCounter.Add(1))
}
