package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestRunWritesReadableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.trace")
	if err := run("tatp", 100, 250, 1, "jsonl", out, ""); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 250 {
		t.Errorf("trace len = %d", tr.Len())
	}
	if len(tr.Classes()) < 5 {
		t.Errorf("classes = %v", tr.Classes())
	}
}

// TestRunWritesColumnarTrace: -format columnar emits the streamable
// binary format, identified by its magic and identical in content to the
// jsonl output for the same seed.
func TestRunWritesColumnarTrace(t *testing.T) {
	dir := t.TempDir()
	colOut := filepath.Join(dir, "t.col")
	if err := run("tatp", 100, 250, 1, "columnar", colOut, ""); err != nil {
		t.Fatal(err)
	}
	isCol, err := trace.SniffColumnar(colOut)
	if err != nil {
		t.Fatal(err)
	}
	if !isCol {
		t.Fatal("columnar output does not start with the columnar magic")
	}
	s, err := trace.OpenColumnar(colOut)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 250 {
		t.Errorf("streamed trace len = %d", s.Len())
	}
	jsonlOut := filepath.Join(dir, "t.trace")
	if err := run("tatp", 100, 250, 1, "jsonl", jsonlOut, ""); err != nil {
		t.Fatal(err)
	}
	if isCol, err := trace.SniffColumnar(jsonlOut); err != nil || isCol {
		t.Errorf("jsonl output sniffed as columnar (%v, %v)", isCol, err)
	}
	f, err := os.Open(jsonlOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != want.Len() {
		t.Fatalf("columnar len %d != jsonl len %d", s.Len(), want.Len())
	}
	for i, txn := range s.All() {
		if txn.ID != want.At(i).ID || txn.Class != want.At(i).Class {
			t.Fatalf("txn %d diverged between formats", i)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRunWritesSnapshot: -db-out writes the post-generation database as
// a snapshot that db.DecodeSnapshot accepts — the row universe the trace
// must be evaluated against (jecb -db-in).
func TestRunWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.col")
	snapOut := filepath.Join(dir, "t.snap")
	if err := run("tatp", 100, 250, 1, "columnar", out, snapOut); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapOut)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workloads.Get("tatp")
	fresh, err := b.Load(workloads.Config{Scale: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.DecodeSnapshot(fresh.Schema(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalRows() < fresh.TotalRows() {
		t.Errorf("snapshot rows = %d, fresh load = %d", d.TotalRows(), fresh.TotalRows())
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if err := run("nope", 0, 10, 1, "jsonl", "", ""); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestRunUnknownFormat(t *testing.T) {
	if err := run("tatp", 100, 10, 1, "parquet", "", ""); err == nil {
		t.Error("unknown format must error")
	}
}
