package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is a tree of phase spans for one pipeline run. Create one with
// WithTrace, pass the returned context through the pipeline, and let the
// instrumented phases call StartSpan/End; then render with Report (a
// flame-style indented text tree) or MarshalJSON.
//
// A Trace also mirrors every finished span into the registry it was
// created against: span "jecb/phase2" records its wall time into the
// histogram "span.jecb/phase2.ns".
type Trace struct {
	mu       sync.Mutex
	root     *Span
	reg      *Registry
	finished bool
}

// Span is one node of the trace tree: a named phase with its wall time
// and attributes.
type Span struct {
	name  string
	trace *Trace

	mu       sync.Mutex
	start    time.Time
	dur      time.Duration
	done     bool
	children []*Span
	attrs    map[string]any
}

// SetAttr attaches a key/value attribute to the span (e.g. the worker
// count a parallel phase ran with, or the number of items it processed).
// Attributes appear in SpanSnapshot/JSON sorted by key and in the text
// Report. SetAttr on a nil span is a no-op, mirroring End.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// WithTrace starts a new trace whose root span is named name, recording
// into the Default registry. The returned context carries both the trace
// and the root span; StartSpan calls against contexts without a trace
// are no-ops, so instrumentation is free when tracing is off.
func WithTrace(ctx context.Context, name string) (context.Context, *Trace) {
	return WithTraceRegistry(ctx, name, Default)
}

// WithTraceRegistry is WithTrace against an explicit registry.
func WithTraceRegistry(ctx context.Context, name string, reg *Registry) (context.Context, *Trace) {
	t := &Trace{reg: reg}
	t.root = t.newSpan(name)
	ctx = context.WithValue(ctx, traceCtxKey{}, t)
	ctx = context.WithValue(ctx, spanCtxKey{}, t.root)
	return ctx, t
}

func (t *Trace) newSpan(name string) *Span {
	return &Span{name: name, trace: t, start: time.Now()}
}

// StartSpan opens a child span under the current span of ctx. If ctx
// carries no trace it returns ctx unchanged and a nil span; calling End
// on a nil span is a safe no-op, so callers never need to branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		parent = t.root
	}
	s := t.newSpan(name)
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// End closes the span, recording wall time and mirroring the duration
// into the trace's registry. End on a nil or already-ended span is a
// no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.dur = time.Since(s.start)
	dur := s.dur
	s.mu.Unlock()
	if s.trace.reg != nil {
		s.trace.reg.HDR("span." + s.name + ".ns").Observe(dur.Nanoseconds())
	}
}

// Finish ends the root span (children left open are measured as of now).
// It is idempotent.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.mu.Unlock()
	t.root.End()
}

// SpanSnapshot is the exportable form of one span.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	dur := s.dur
	if !s.done {
		dur = time.Since(s.start)
	}
	out := SpanSnapshot{
		Name:       s.name,
		DurationNS: dur.Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}

// Snapshot copies the whole trace tree.
func (t *Trace) Snapshot() SpanSnapshot { return t.root.snapshot() }

// MarshalJSON renders the trace tree as nested JSON.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Snapshot())
}

// Report renders the trace as an indented text tree, one line per span:
// name, wall time, percentage of the root and the attributes. Sibling
// order is preserved (chronological).
func (t *Trace) Report() string {
	snap := t.Snapshot()
	rootNS := snap.DurationNS
	if rootNS <= 0 {
		rootNS = 1
	}
	width := maxNameWidth(snap, 0)
	var sb strings.Builder
	writeReport(&sb, snap, 0, rootNS, width)
	return sb.String()
}

func maxNameWidth(s SpanSnapshot, depth int) int {
	w := 2*depth + len(s.Name)
	for _, c := range s.Children {
		if cw := maxNameWidth(c, depth+1); cw > w {
			w = cw
		}
	}
	return w
}

func writeReport(sb *strings.Builder, s SpanSnapshot, depth int, rootNS int64, width int) {
	indent := strings.Repeat("  ", depth)
	pct := 100 * float64(s.DurationNS) / float64(rootNS)
	fmt.Fprintf(sb, "%-*s  %10s  %5.1f%%", width, indent+s.Name,
		formatDuration(time.Duration(s.DurationNS)), pct)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sb, "  %s=%v", k, s.Attrs[k])
		}
	}
	sb.WriteByte('\n')
	for _, c := range s.Children {
		writeReport(sb, c, depth+1, rootNS, width)
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
