package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	reg := NewRegistry()
	ctx, tr := WithTraceRegistry(context.Background(), "run", reg)
	ctx1, s1 := StartSpan(ctx, "load")
	_, s11 := StartSpan(ctx1, "load/rows")
	time.Sleep(time.Millisecond)
	s11.End()
	s1.End()
	_, s2 := StartSpan(ctx, "partition")
	s2.End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.Name != "run" || len(snap.Children) != 2 {
		t.Fatalf("unexpected tree: %+v", snap)
	}
	if snap.Children[0].Name != "load" || snap.Children[1].Name != "partition" {
		t.Fatalf("children order: %+v", snap.Children)
	}
	if len(snap.Children[0].Children) != 1 || snap.Children[0].Children[0].Name != "load/rows" {
		t.Fatalf("grandchild: %+v", snap.Children[0])
	}
	if snap.Children[0].DurationNS < time.Millisecond.Nanoseconds() {
		t.Fatalf("load duration %dns too small", snap.Children[0].DurationNS)
	}
	if snap.DurationNS < snap.Children[0].DurationNS {
		t.Fatal("root shorter than child")
	}
	// Durations mirrored into the registry's HDR histograms.
	if reg.HDR("span.load.ns").Snapshot().Count != 1 {
		t.Fatal("span duration not mirrored into registry")
	}
}

func TestSpanNoTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything")
	if s != nil {
		t.Fatal("expected nil span without a trace")
	}
	if ctx2 != ctx {
		t.Fatal("context should be unchanged")
	}
	s.End() // must not panic
	s.SetAttr("k", 1)
}

func TestSpanDoubleEndAndFinishIdempotent(t *testing.T) {
	_, tr := WithTraceRegistry(context.Background(), "run", NewRegistry())
	tr.Finish()
	d1 := tr.Snapshot().DurationNS
	time.Sleep(2 * time.Millisecond)
	tr.Finish()
	if d2 := tr.Snapshot().DurationNS; d2 != d1 {
		t.Fatalf("second Finish changed duration: %d -> %d", d1, d2)
	}
}

func TestSpanReportAndJSON(t *testing.T) {
	ctx, tr := WithTraceRegistry(context.Background(), "jecb/run", NewRegistry())
	_, s := StartSpan(ctx, "jecb/phase1")
	s.End()
	tr.Finish()
	rep := tr.Report()
	if !strings.Contains(rep, "jecb/run") || !strings.Contains(rep, "  jecb/phase1") {
		t.Fatalf("report missing spans:\n%s", rep)
	}
	if !strings.Contains(rep, "100.0%") {
		t.Fatalf("report missing root percentage:\n%s", rep)
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var snap SpanSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Name != "jecb/run" || len(snap.Children) != 1 {
		t.Fatalf("JSON round-trip: %+v", snap)
	}
}

// TestConcurrentSpans drives sibling spans from multiple goroutines so
// -race exercises the tree locking.
func TestConcurrentSpans(t *testing.T) {
	ctx, tr := WithTraceRegistry(context.Background(), "run", NewRegistry())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cctx, s := StartSpan(ctx, "worker")
				_, inner := StartSpan(cctx, "inner")
				inner.End()
				s.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Children) != 8*50 {
		t.Fatalf("children = %d, want 400", len(snap.Children))
	}
}

// TestConcurrentSpanAttrStress hammers SetAttr/StartSpan/End (and
// snapshotting) on the SAME spans from many goroutines, so -race proves
// attribute writes are properly locked against tree walks.
func TestConcurrentSpanAttrStress(t *testing.T) {
	ctx, tr := WithTraceRegistry(context.Background(), "run", NewRegistry())
	_, shared := StartSpan(ctx, "shared")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				shared.SetAttr("k", id*1000+j)
				shared.SetAttr("id", id)
				cctx, s := StartSpan(ctx, "worker")
				s.SetAttr("j", j)
				_, inner := StartSpan(cctx, "inner")
				inner.SetAttr("deep", true)
				inner.End()
				s.End()
				if j%50 == 0 {
					_ = tr.Snapshot()
					_ = tr.Report()
				}
			}
		}(i)
	}
	wg.Wait()
	shared.End()
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Children) != 1+8*200 {
		t.Fatalf("children = %d, want %d", len(snap.Children), 1+8*200)
	}
	if a := snap.Children[0].Attrs; a["k"] == nil || a["id"] == nil {
		t.Fatalf("shared attrs after stress = %v", a)
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.test").Add(3)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "jecb_serve_test_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metricsz"); !strings.Contains(out, `"serve.test": 3`) {
		t.Fatalf("/metricsz missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "jecb") {
		t.Fatalf("/debug/vars missing registry:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
