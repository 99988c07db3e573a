package obs

import (
	"encoding/json"
	"io"
)

// Trace-event export: the Chrome trace-event JSON format ("JSON Array
// Format" wrapped in an object), readable by Perfetto (ui.perfetto.dev)
// and chrome://tracing.  The format is a de-facto standard for timeline
// visualisation; producers here are the simulator's round profiles
// (dist.PerfettoEvents) and, via Trace.Events, the per-request stage spans.
//
// Only the event shapes the library emits are modeled: "X" (complete,
// ts+dur), and "M" (metadata, e.g. thread_name).  Timestamps and durations
// are in microseconds, per the format.

// TraceEventsContentType is the Content-Type trace exports are served with.
const TraceEventsContentType = "application/json; charset=utf-8"

// TraceEvent is one entry of a Chrome trace-event stream.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceEvents writes events as a complete trace document
// ({"traceEvents": [...]}), the envelope Perfetto's JSON importer expects.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{} // an empty trace is still a valid document
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
