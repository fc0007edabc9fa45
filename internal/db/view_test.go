package db

import (
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// viewBound is how long a step that must not block may take before the
// test calls it a deadlock; it is generous for the race detector.
const viewBound = 10 * time.Second

// waitWriterQueued returns once a writer is queued on t's lock: a read
// lock tried then fails. The caller holds a view, so the writer cannot
// get in.
func waitWriterQueued(tb testing.TB, t *Table) {
	tb.Helper()
	deadline := time.Now().Add(viewBound)
	for t.mu.TryRLock() {
		t.mu.RUnlock()
		if time.Now().After(deadline) {
			tb.Fatalf("no writer queued on %s", t.meta.Name)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// within runs fn on its own goroutine and fails the test when it does not
// return within viewBound.
func within(tb testing.TB, what string, fn func()) {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(viewBound):
		tb.Fatalf("%s did not finish within %v: deadlock", what, viewBound)
	}
}

// TestViewBlocksWriters checks that writers wait for an open view: an
// Insert and a Touch started while it is open complete only after Close.
func TestViewBlocksWriters(t *testing.T) {
	d := loadFigure1(t)
	tr, hs := d.Table("TRADE"), d.Table("HOLDING_SUMMARY")
	v := d.View()
	var wrote sync.WaitGroup
	wrote.Add(2)
	inserted, touched := make(chan struct{}), make(chan struct{})
	go func() {
		defer wrote.Done()
		if _, err := tr.Insert(value.Tuple{value.NewInt(99), value.NewInt(1), value.NewInt(5)}); err != nil {
			t.Error(err)
		}
		close(inserted)
	}()
	go func() {
		defer wrote.Done()
		hs.Touch(value.MakeKey(value.NewString("ZZ"), value.NewInt(1)))
		close(touched)
	}()
	waitWriterQueued(t, tr)
	waitWriterQueued(t, hs)
	select {
	case <-inserted:
		t.Fatal("Insert completed while a view was open")
	case <-touched:
		t.Fatal("Touch completed while a view was open")
	default:
	}
	// The view still reads the rows as they were.
	if _, _, ok := v.Resolve(tr, value.MakeKey(value.NewInt(99))); ok {
		t.Fatal("a view sees a row inserted after it opened")
	}
	v.Close()
	within(t, "writers after Close", wrote.Wait)
	if _, ok := tr.Get(value.MakeKey(value.NewInt(99))); !ok {
		t.Error("insert lost")
	}
}

// TestNestedViewsWithQueuedWriter opens views inside a view on one
// goroutine while a writer is queued on a table: the nested views take
// no lock, so they neither wait behind the writer nor deadlock, and the
// writer gets in once the outermost view closes.
func TestNestedViewsWithQueuedWriter(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	nav, err := d.Compile(tradePath())
	if err != nil {
		t.Fatal(err)
	}
	outer := d.View()
	wrote := make(chan struct{})
	go func() {
		tr.Touch(value.MakeKey(value.NewInt(1)))
		close(wrote)
	}()
	waitWriterQueued(t, tr)
	within(t, "nested views", func() {
		v2 := d.View()
		v3 := d.View()
		if got, ok := v3.FromKey(nav, value.MakeKey(value.NewInt(1))); !ok || got != value.NewInt(1) {
			t.Errorf("nested FromKey = %v, %v; want 1", got, ok)
		}
		n := 0
		for range v2.Rows(tr) {
			n++
		}
		if n != v2.Len(tr) || n != 8 {
			t.Errorf("nested Rows saw %d rows, Len %d; want 8", n, v2.Len(tr))
		}
		v3.Close()
		v2.Close()
		v2.Close() // idempotent: must not release the outer view's locks
	})
	select {
	case <-wrote:
		t.Fatal("writer got in while the outer view was open")
	default:
	}
	outer.Close()
	within(t, "writer after the outer Close", func() { <-wrote })
	if got := versionOf(tr, value.MakeKey(value.NewInt(1))); got != 1 {
		t.Errorf("version = %d, want 1", got)
	}
}

// TestConcurrentViewsReleaseLocks opens overlapping views from many
// goroutines, some nested, while a writer waits its turn: once the last
// view closes, no table is read-locked any more, and the hop memo the
// views' slot walks shared is dropped.
func TestConcurrentViewsReleaseLocks(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	nav, err := d.Compile(tradePath())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 16, 50
	var readers, writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < rounds; i++ {
			tr.Touch(value.MakeKey(value.NewInt(int64(1 + i%8))))
		}
	}()
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < rounds; i++ {
				v := d.View()
				k := value.MakeKey(value.NewInt(int64(1 + (g+i)%8)))
				if _, ok := v.FromKey(nav, k); !ok {
					t.Errorf("FromKey(%v) dangles", k)
				}
				if _, ok := v.FromSlot(nav, (g+i)%8); !ok {
					t.Errorf("FromSlot(%d) dangles", (g+i)%8)
				}
				if g%2 == 0 {
					inner := d.View()
					inner.Resolve(tr, k)
					inner.Close()
				}
				v.Close()
			}
		}(g)
	}
	within(t, "readers and writer", func() {
		readers.Wait()
		writer.Wait()
	})
	if d.views != 0 {
		t.Fatalf("%d views open after every Close", d.views)
	}
	if d.memo.Load() != nil {
		t.Fatal("the hop memo outlived the last view")
	}
	for _, tbl := range d.order {
		if !tbl.mu.TryLock() {
			t.Fatalf("%s is still locked after the last Close", tbl.meta.Name)
		}
		tbl.mu.Unlock()
	}
}

// TestHopMemoLifetime checks that the hop memo lives for one open-view
// period: the first slot walk creates it, closing a view while another
// is open keeps it, and the Close that ends the last view drops it. A
// view opened after writers changed the rows the memo pointed at must
// see the new rows: a trade re-pointed at another account, and a trade
// whose account was deleted and whose account's slot now holds a
// different account. A memo kept across the writes would still map both
// trades to their old accounts' slots.
func TestHopMemoLifetime(t *testing.T) {
	d := loadFigure1(t)
	nav, err := d.Compile(tradePath())
	if err != nil {
		t.Fatal(err)
	}
	trade, ca := d.Table("TRADE"), d.Table("CUSTOMER_ACCOUNT")
	key := func(id int64) value.Key { return value.MakeKey(value.NewInt(id)) }
	slot := func(tbl *Table, id int64) int {
		v := d.View()
		defer v.Close()
		s, _, ok := v.Resolve(tbl, key(id))
		if !ok || s < 0 {
			t.Fatalf("%s %d has no live slot", tbl.meta.Name, id)
		}
		return s
	}
	// customers walks every trade from its slot in a new view, checking
	// the memo is created and kept until the last view closes.
	customers := func() map[int64]value.Value {
		slots := map[int64]int{}
		for id := int64(1); id <= 8; id++ {
			slots[id] = slot(trade, id)
		}
		out := map[int64]value.Value{}
		v, inner := d.View(), d.View()
		for id, s := range slots {
			out[id], _ = inner.FromSlot(nav, s)
		}
		if d.memo.Load() == nil {
			t.Fatal("a slot walk did not create the hop memo")
		}
		inner.Close()
		if d.memo.Load() == nil {
			t.Fatal("closing a nested view dropped the hop memo")
		}
		v.Close()
		if d.memo.Load() != nil {
			t.Fatal("the Close that ended the last view kept the hop memo")
		}
		return out
	}
	// Trade 1 is account 1's (customer 1), trade 3 account 10's
	// (customer 2).
	before := customers()
	if before[1] != value.NewInt(1) || before[3] != value.NewInt(2) {
		t.Fatalf("fixture customers: trade 1 %v, trade 3 %v; want 1, 2", before[1], before[3])
	}
	if err := trade.Update(key(1), []string{"T_CA_ID"}, []value.Value{value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	freed := slot(ca, 10)
	ca.Delete(key(10))
	ca.MustInsert(value.NewInt(11), value.NewInt(1))
	if slot(ca, 11) != freed {
		t.Fatalf("account 11 took slot %d, not account 10's freed slot %d", slot(ca, 11), freed)
	}
	after := customers()
	if after[1] != value.NewInt(2) {
		t.Errorf("trade 1 re-pointed to account 7: customer %v, want 2", after[1])
	}
	if after[3] != value.NewInt(2) {
		t.Errorf("trade 3 of deleted account 10: customer %v, want 2 (from the graveyard)", after[3])
	}
}
