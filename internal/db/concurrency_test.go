package db

import (
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// TestTableConcurrentReadersAndWriters exercises the Table RWMutex under
// the race detector: reader goroutines hammer Get/GetAny/Scan/Keys/KeyAt/
// Len/LookupRows/Version/Digest, and view readers read and navigate
// through a View, while writers interleave Insert/Update/Delete/Touch and
// CommitOps commits and rollbacks. `make verify` runs the suite with -race, so any
// unguarded access fails CI.
func TestTableConcurrentReadersAndWriters(t *testing.T) {
	d := loadFigure1(t)
	tr := d.Table("TRADE")
	nav, err := d.Compile(tradePath())
	if err != nil {
		t.Fatal(err)
	}
	const readers, viewReaders, rounds = 8, 2, 400

	stop := make(chan struct{})
	var readerWG, writerWG sync.WaitGroup

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := value.MakeKey(value.NewInt(int64(1 + (i+r)%8)))
				tr.Get(k)
				tr.GetAny(k)
				versionOf(tr, k)
				tr.Len()
				tr.KeyAt(0)
				tr.LookupRows("T_CA_ID", value.NewInt(int64(1+(i%4))))
				if i%16 == 0 {
					tr.Digest()
				}
			}
		}(r)
	}

	// View readers: each holds a view for one round of reads, then pauses
	// so the views of the two do not overlap forever and keep the
	// writers out.
	for r := 0; r < viewReaders; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := value.MakeKey(value.NewInt(int64(1 + (i+r)%8)))
				v := d.View()
				if _, ok := v.FromKey(nav, k); !ok {
					t.Errorf("base row %v does not navigate inside a view", k)
				}
				if slot, _, ok := v.Resolve(tr, k); ok && slot >= 0 {
					v.RowAt(tr, slot)
				}
				n := 0
				for _, row := range v.Rows(tr) {
					v.FromRow(nav, row)
					if n++; n == 4 {
						break
					}
				}
				if v.Slots(tr) < v.Len(tr) {
					t.Error("fewer slots than live rows")
				}
				v.Close()
				time.Sleep(50 * time.Microsecond)
			}
		}(r)
	}

	// Writer 1: direct mutators over a private key range.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < rounds; i++ {
			id := int64(1000 + i%32)
			k := value.MakeKey(value.NewInt(id))
			if _, ok := tr.Get(k); ok {
				_ = tr.Update(k, []string{"T_QTY"}, []value.Value{value.NewInt(int64(i))})
				tr.Delete(k)
			} else {
				_, _ = tr.Insert(value.Tuple{value.NewInt(id), value.NewInt(1), value.NewInt(int64(i))})
			}
			tr.Touch(k)
		}
	}()

	// Writer 2: transactions over a disjoint key range, half rolled back
	// by a trailing delete of a missing key.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < rounds; i++ {
			id := int64(2000 + i%32)
			ops := []Op{
				{Kind: OpTouch, Table: "TRADE", Key: value.MakeKey(value.NewInt(id))},
				{Kind: OpTouch, Table: "HOLDING_SUMMARY", Key: value.MakeKey(value.NewString("CC"), value.NewInt(id))},
			}
			if i%2 == 1 {
				ops = append(ops, Op{Kind: OpDelete, Table: "TRADE", Key: value.MakeKey(value.NewInt(-1))})
			}
			_ = d.CommitOps(ops)
		}
	}()

	writerWG.Wait() // readers keep running while writers mutate
	close(stop)
	readerWG.Wait()

	// Sanity: the base rows survived the storm and the committed
	// transactions' touches are visible.
	if _, ok := tr.Get(value.MakeKey(value.NewInt(1))); !ok {
		t.Error("base row 1 lost during concurrent access")
	}
	if versionOf(tr, value.MakeKey(value.NewInt(2000))) == 0 {
		t.Error("committed touches not visible")
	}
}
