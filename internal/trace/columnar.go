package trace

import (
	"encoding/binary"
	"fmt"
	"iter"
	"sort"

	"repro/internal/value"
)

// Workload is the read-side cursor contract every trace representation
// implements: the row-oriented Trace, the in-memory Columnar form, and
// the streaming on-disk Stream reader. Partitioners and evaluators that
// accept a Workload run unchanged on all three.
//
// Pointer-lifetime contract: the *Txn values a cursor yields are valid
// only for the duration of the yield. The row Trace happens to yield
// stable pointers, but the columnar representations reuse one scratch
// transaction per cursor to keep iteration allocation-free — callers
// that retain a transaction must copy it (Clone).
type Workload interface {
	// Len returns the number of transactions. For a streaming reader the
	// first call may require a full pass over the file.
	Len() int
	// All iterates (index, transaction) in trace order.
	All() iter.Seq2[int, *Txn]
	// Classes returns the distinct class names, sorted. Shared storage —
	// callers must not mutate.
	Classes() []string
	// Mix returns each class's workload fraction (nil when empty).
	// Shared storage — callers must not mutate.
	Mix() map[string]float64
}

// Compile-time checks that all three representations satisfy Workload.
var (
	_ Workload = (*Trace)(nil)
	_ Workload = (*Columnar)(nil)
	_ Workload = (*Stream)(nil)
)

// Clone returns a deep copy of the transaction. Use it to retain a
// transaction yielded by a columnar cursor beyond the yield.
func (t *Txn) Clone() Txn {
	c := Txn{ID: t.ID, Class: t.Class}
	if len(t.Params) > 0 {
		c.Params = make(map[string]value.Value, len(t.Params))
		for k, v := range t.Params {
			c.Params[k] = v
		}
	}
	if len(t.Accesses) > 0 {
		c.Accesses = append(make([]Access, 0, len(t.Accesses)), t.Accesses...)
	}
	return c
}

// Columnar is the structure-of-arrays trace representation: table names,
// class names and primary keys are interned to dense uint32 ids, and the
// access list is stored as parallel columns with per-transaction offsets.
// A 10M-access trace is three flat uint32 slices plus one bit per access,
// instead of 10M Access structs holding Go strings; the evaluator's hot
// path walks the columns without touching a map or allocating.
//
// Keys are interned as a composite of the owning table's id and the raw
// key bytes, so a key id globally identifies a (table, tuple) pair — the
// evaluator's join-path index is a single dense array indexed by key id.
type Columnar struct {
	tables  *Dict
	classes *Dict
	keys    *Dict // composite: 4-byte big-endian tableID ++ raw key bytes

	ids      []int32                  // Txn.ID per transaction
	classIDs []uint32                 // class id per transaction
	params   []map[string]value.Value // aligned with ids; entries may be nil

	offsets  []uint32 // len NumTxns+1: accesses of txn i are [offsets[i], offsets[i+1])
	accTable []uint32 // table id per access
	accKey   []uint32 // key id per access
	accWrite []uint64 // write bit per access, packed

	sortedClasses []string
	mix           map[string]float64
}

// NewColumnar returns an empty columnar trace ready to Add into.
func NewColumnar() *Columnar {
	return &Columnar{
		tables:  NewDict(),
		classes: NewDict(),
		keys:    NewDict(),
		offsets: []uint32{0},
	}
}

// Columnarize converts a row trace to the columnar representation.
func Columnarize(tr *Trace) *Columnar {
	c := NewColumnar()
	for i := range tr.txns {
		c.Add(&tr.txns[i])
	}
	return c
}

// Add appends one transaction (copied into the columns; t is not
// retained). Derived views (Classes, Mix) are invalidated.
func (c *Columnar) Add(t *Txn) {
	c.ids = append(c.ids, int32(t.ID))
	c.classIDs = append(c.classIDs, c.classes.ID(t.Class))
	var p map[string]value.Value
	if len(t.Params) > 0 {
		p = make(map[string]value.Value, len(t.Params))
		for k, v := range t.Params {
			p[k] = v
		}
	}
	c.params = append(c.params, p)
	for _, a := range t.Accesses {
		tid := c.tables.ID(a.Table)
		c.accTable = append(c.accTable, tid)
		c.accKey = append(c.accKey, c.internKey(tid, a.Key))
		n := len(c.accTable) - 1
		if n >= len(c.accWrite)*64 {
			c.accWrite = append(c.accWrite, 0)
		}
		if a.Write {
			c.accWrite[n>>6] |= 1 << (uint(n) & 63)
		}
	}
	c.offsets = append(c.offsets, uint32(len(c.accTable)))
	c.sortedClasses, c.mix = nil, nil
}

// internKey interns the composite key of (table, key); it allocates only
// when the key is new.
func (c *Columnar) internKey(tableID uint32, key value.Key) uint32 {
	var buf [compositeBufSize]byte
	return c.keys.IDBytes(appendComposite(buf[:0], tableID, key))
}

// compositeBufSize is the stack buffer a composite key is built in; a
// longer key (a long string key column) spills it to the heap.
const compositeBufSize = 64

// appendComposite appends the composite key the key dictionary interns:
// the 4-byte big-endian table id, then the raw key bytes.
func appendComposite(dst []byte, tableID uint32, key value.Key) []byte {
	return append(binary.BigEndian.AppendUint32(dst, tableID), key...)
}

// NumTxns returns the number of transactions.
func (c *Columnar) NumTxns() int { return len(c.ids) }

// Len returns the number of transactions (Workload).
func (c *Columnar) Len() int { return len(c.ids) }

// NumAccesses returns the total number of tuple accesses.
func (c *Columnar) NumAccesses() int { return len(c.accTable) }

// NumKeys returns the number of distinct (table, key) pairs.
func (c *Columnar) NumKeys() int { return c.keys.Len() }

// NumTables returns the number of distinct tables.
func (c *Columnar) NumTables() int { return c.tables.Len() }

// NumClasses returns the number of distinct transaction classes.
func (c *Columnar) NumClasses() int { return c.classes.Len() }

// TableName resolves a table id.
func (c *Columnar) TableName(id uint32) string { return c.tables.Name(id) }

// ClassName resolves a class id.
func (c *Columnar) ClassName(id uint32) string { return c.classes.Name(id) }

// ClassID returns the class id of transaction i.
func (c *Columnar) ClassID(i int) uint32 { return c.classIDs[i] }

// AccessRange returns the [lo, hi) access-column indices of txn i.
func (c *Columnar) AccessRange(i int) (lo, hi int) {
	return int(c.offsets[i]), int(c.offsets[i+1])
}

// AccessKey returns the key id of access j.
func (c *Columnar) AccessKey(j int) uint32 { return c.accKey[j] }

// AccessWrite reports whether access j is a write.
func (c *Columnar) AccessWrite(j int) bool {
	return c.accWrite[j>>6]&(1<<(uint(j)&63)) != 0
}

// KeyOf resolves a key id back to its table id and raw key. The key
// aliases the dictionary's storage (no copy).
func (c *Columnar) KeyOf(keyID uint32) (tableID uint32, key value.Key) {
	comp := c.keys.Name(keyID)
	tableID = uint32(comp[0])<<24 | uint32(comp[1])<<16 | uint32(comp[2])<<8 | uint32(comp[3])
	return tableID, value.Key(comp[4:])
}

// buildViews computes the cached class list and mix.
func (c *Columnar) buildViews() {
	counts := make([]int, c.classes.Len())
	for _, id := range c.classIDs {
		counts[id]++
	}
	c.sortedClasses = append([]string(nil), c.classes.Names()...)
	sort.Strings(c.sortedClasses)
	if len(c.ids) > 0 {
		c.mix = make(map[string]float64, len(counts))
		for id, n := range counts {
			if n > 0 {
				c.mix[c.classes.Name(uint32(id))] = float64(n) / float64(len(c.ids))
			}
		}
	}
}

// Classes returns the distinct class names, sorted. Cached and shared —
// callers must not mutate.
func (c *Columnar) Classes() []string {
	if c.sortedClasses == nil {
		c.buildViews()
	}
	return c.sortedClasses
}

// Mix returns each class's workload fraction. Cached and shared —
// callers must not mutate.
func (c *Columnar) Mix() map[string]float64 {
	if c.sortedClasses == nil {
		c.buildViews()
	}
	return c.mix
}

// fill reconstructs txn i into the scratch transaction, reusing the
// access buffer. The scratch is valid only until the next fill.
func (c *Columnar) fill(scratch *Txn, accBuf *[]Access, i int) {
	scratch.ID = int(c.ids[i])
	scratch.Class = c.classes.Name(c.classIDs[i])
	scratch.Params = c.params[i]
	scratch.tables = nil
	buf := (*accBuf)[:0]
	lo, hi := c.AccessRange(i)
	for j := lo; j < hi; j++ {
		_, key := c.KeyOf(c.accKey[j])
		buf = append(buf, Access{
			Table: c.tables.Name(c.accTable[j]),
			Key:   key,
			Write: c.AccessWrite(j),
		})
	}
	*accBuf = buf
	scratch.Accesses = buf
}

// All iterates (index, transaction) in trace order. The yielded pointer
// is a reused scratch transaction — valid only during the yield; Clone
// to retain (see Workload).
func (c *Columnar) All() iter.Seq2[int, *Txn] {
	return func(yield func(int, *Txn) bool) {
		var scratch Txn
		var accBuf []Access
		for i := 0; i < len(c.ids); i++ {
			c.fill(&scratch, &accBuf, i)
			if !yield(i, &scratch) {
				return
			}
		}
	}
}

// String summarizes the columnar trace for debugging.
func (c *Columnar) String() string {
	return fmt.Sprintf("columnar{txns=%d accesses=%d tables=%d keys=%d classes=%d}",
		c.NumTxns(), c.NumAccesses(), c.NumTables(), c.NumKeys(), c.NumClasses())
}
