// Package db is the in-memory relational store the reproduction runs on.
// It replaces the SQL Server instance of the paper's evaluation framework
// (§7.1): benchmark generators load synthetic data into it, stored
// procedures read and write it while the trace collector records accessed
// tuples, and the partitioning evaluator uses it to follow join paths from
// tuples to root-attribute values.
//
// The store is deliberately simple — typed rows, hash primary-key indexes,
// lazily built secondary indexes — because every partitioning algorithm in
// this repository observes only tuple identities and join-path lookups,
// never storage internals.
package db

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Registry metrics (see DESIGN.md, "Metric reference"). Insert/scan
// counters are cached in package vars because the benchmark loaders and
// workload drivers sit on them in tight loops.
var (
	cRowsInserted = obs.Default.Counter("db.rows_inserted")
	cTableScans   = obs.Default.Counter("db.table_scans")
	cSecIdxBuilds = obs.Default.Counter("db.secondary_index_builds")
	cTouches      = obs.Default.Counter("db.touches")
)

// DB is an in-memory database instance conforming to a schema.
type DB struct {
	sc     *schema.Schema
	tables map[string]*Table
	order  []*Table // the tables in schema order, the order View locks them in

	// viewMu guards views, the number of open Views: the first View
	// read-locks every table and the Close that ends the last one
	// unlocks them (view.go).
	viewMu sync.Mutex
	views  int
	// memo is the hop memo of the open-view period: nil until a slot
	// walk inside a View first needs it, and dropped by the Close that
	// ends the last View, since writers may change rows after that
	// (joinpath.go).
	memo atomic.Pointer[hopMemo]

	// edgeMu guards edges, the id Compile gave each within-table hop
	// edge; hops of different navigators that share an edge share its
	// memo column.
	edgeMu sync.Mutex
	edges  map[hopEdge]int

	// commitMu serializes CommitOps and CommitBodies, which reuse undo
	// as their undo log; CommitBodies decodes into decoded.
	commitMu sync.Mutex
	undo     []undo
	decoded  []Op
}

// New creates an empty database for the schema.
func New(sc *schema.Schema) *DB {
	d := &DB{sc: sc, tables: make(map[string]*Table, len(sc.Tables())), edges: map[hopEdge]int{}}
	for i, tm := range sc.Tables() {
		t := newTable(tm)
		t.id = i
		d.tables[tm.Name] = t
		d.order = append(d.order, t)
	}
	return d
}

// Schema returns the schema the database was created with.
func (d *DB) Schema() *schema.Schema { return d.sc }

// Table returns the named table, or nil if the schema does not declare it.
func (d *DB) Table(name string) *Table { return d.tables[name] }

// TotalRows returns the number of live rows across all tables.
func (d *DB) TotalRows() int {
	n := 0
	for _, t := range d.tables {
		n += t.Len()
	}
	return n
}

// Table stores the rows of one relation with a primary-key index and
// lazily built single-column secondary indexes.
//
// Concurrency: a Table is safe for concurrent readers (Get, GetAny,
// Scan, Keys, KeyAt, Len, LookupRows) against concurrent mutators
// (Insert, Update, Delete, Touch) — an RWMutex guards the row store and
// indexes, and each of these methods takes it per call. Scan's callback
// runs under the table's read lock and therefore must not mutate the
// same table. Mutators are mutually serialized per table; cross-table
// atomicity is the commit path's job (CommitOps, commit.go), not the
// lock's.
//
// Reading rows by slot and walking join paths happen only inside a View
// (view.go): DB.View read-locks every table once, and the View's Resolve,
// RowAt, Slots, Len, Rows, FromRow, FromKey and FromSlot read without
// locking. A writer waits until every open View is closed. Views nest and
// overlap by count — a View opened while another is open takes no lock,
// and the Close of the last one unlocks — so no code inside a View may
// call a locking Table method: a read lock taken again behind a queued
// writer deadlocks.
type Table struct {
	mu     sync.RWMutex
	meta   *schema.Table
	id     int   // position in the schema's table order
	pkCols []int // meta.PKIndexes(), resolved once
	rows   []value.Tuple
	free   []int // indexes of deleted slots available for reuse
	pk     map[value.Key]int
	sorted []value.Key // Keys' sorted list; nil until first asked for
	sec    map[string]secIndex
	// graveyard keeps the last version of deleted rows so join paths can
	// still be evaluated for tuples a traced transaction deleted (the
	// trace references them, but the live table no longer does).
	graveyard map[value.Key]value.Tuple
	// versions counts committed Touch writes per key. It is the durable
	// execution layer's observable write effect: the chaos replay's
	// transactions "write" a tuple by bumping its version, so the
	// per-table Digest reflects exactly the committed write history even
	// when the workload carries no new column values. Version entries may
	// exist for keys without a live row (the durable stores of the 2PC
	// simulation start empty and accumulate touches only). Each entry
	// also holds the table's copy of its key, so decoding a touch of a
	// versioned key names it without allocating (versionedKey).
	versions map[value.Key]version
	// vsorted holds the version keys in ascending order as of the last
	// Digest or snapshot (valid while vsynced), and vadded the keys
	// versions gained since, unsorted: the next Digest or snapshot sorts
	// only vadded and merges it in. A key leaving versions clears
	// vsynced, and the next one sorts every key afresh.
	vsorted, vadded []value.Key
	vsynced         bool
}

// version is one versions entry: the table's copy of the key and the
// key's committed write count.
type version struct {
	key value.Key
	n   uint64
}

func newTable(meta *schema.Table) *Table {
	return &Table{meta: meta, pkCols: meta.PKIndexes(), pk: make(map[value.Key]int)}
}

// Meta returns the table's schema declaration.
func (t *Table) Meta() *schema.Table { return t.meta }

// ID returns the table's position in its schema's table order
// (schema.Schema.Tables): a dense id for per-table slices.
func (t *Table) ID() int { return t.id }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pk)
}

// PKOf computes the primary-key encoding of a tuple of this table.
func (t *Table) PKOf(row value.Tuple) value.Key {
	var buf [keyBufSize]byte
	key := buf[:0]
	for _, ci := range t.pkCols {
		key = row[ci].Encode(key)
	}
	return value.Key(key)
}

// Insert adds a row. It returns the row's primary key, or an error on
// arity mismatch, type mismatch, or duplicate key.
func (t *Table) Insert(row value.Tuple) (value.Key, error) {
	if len(row) != len(t.meta.Columns) {
		return "", fmt.Errorf("db: %s: insert arity %d, want %d", t.meta.Name, len(row), len(t.meta.Columns))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.Kind() != t.meta.Columns[i].Type.Kind() {
			return "", fmt.Errorf("db: %s.%s: inserting %s into %s column",
				t.meta.Name, t.meta.Columns[i].Name, v.Kind(), t.meta.Columns[i].Type)
		}
	}
	k := t.PKOf(row)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.pk[k]; dup {
		// row.String(), not row: handing fmt the tuple itself would make
		// every caller's row escape, including MustInsert's argument list.
		return "", fmt.Errorf("db: %s: duplicate primary key %s", t.meta.Name, row.String())
	}
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = row.Clone()
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, row.Clone())
	}
	t.pk[k] = slot
	t.keyAdded(k)
	t.indexInsert(slot, row)
	cRowsInserted.Inc()
	return k, nil
}

// MustInsert inserts a row built from raw values, panicking on error; it is
// the loader API for the static benchmark generators.
func (t *Table) MustInsert(vals ...value.Value) value.Key {
	k, err := t.Insert(value.Tuple(vals))
	if err != nil {
		panic(err)
	}
	return k
}

// EnsureKey inserts a stub row for k if no row with that primary key
// exists: the primary-key columns are decoded from the key itself and
// every other column is NULL. Post-hoc trace evaluation uses it to
// reconstruct rows a captured trace created mid-run (the trace records
// only keys, not row contents) — join-path navigation then works for
// any FK attribute that is part of the primary key. Returns true if a
// row was created.
func (t *Table) EnsureKey(k value.Key) (bool, error) {
	if _, ok := t.Get(k); ok {
		return false, nil
	}
	vals, err := value.DecodeKey(k)
	if err != nil {
		return false, fmt.Errorf("db: %s: ensure key: %v", t.meta.Name, err)
	}
	idx := t.pkCols
	if len(vals) != len(idx) {
		return false, fmt.Errorf("db: %s: ensure key: key encodes %d values, primary key has %d columns",
			t.meta.Name, len(vals), len(idx))
	}
	row := make(value.Tuple, len(t.meta.Columns))
	for i, ci := range idx {
		row[ci] = vals[i]
	}
	if _, err := t.Insert(row); err != nil {
		return false, err
	}
	return true, nil
}

// Get returns the row with the given primary key.
func (t *Table) Get(k value.Key) (value.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.pk[k]
	if !ok {
		return nil, false
	}
	return t.rows[slot], true
}

// Update replaces non-key columns of the row identified by k. The update
// tuple provides (column name, new value) pairs via the cols/vals slices.
// Updating primary-key columns is rejected.
func (t *Table) Update(k value.Key, cols []string, vals []value.Value) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("db: %s: update arity mismatch", t.meta.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.pk[k]
	if !ok {
		return fmt.Errorf("db: %s: update of missing key", t.meta.Name)
	}
	for _, c := range cols {
		for _, pkc := range t.meta.PrimaryKey {
			if c == pkc {
				return fmt.Errorf("db: %s: cannot update primary-key column %s", t.meta.Name, c)
			}
		}
	}
	row := t.rows[slot]
	t.indexDelete(slot, row)
	for i, c := range cols {
		ci := t.meta.ColumnIndex(c)
		if ci < 0 {
			t.indexInsert(slot, row)
			return fmt.Errorf("db: %s: unknown column %s", t.meta.Name, c)
		}
		row[ci] = vals[i]
	}
	t.indexInsert(slot, row)
	return nil
}

// Delete removes the row identified by k; it reports whether a row
// existed. The deleted version remains readable through GetAny.
func (t *Table) Delete(k value.Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(k)
}

func (t *Table) deleteLocked(k value.Key) bool {
	slot, ok := t.pk[k]
	if !ok {
		return false
	}
	if t.graveyard == nil {
		t.graveyard = make(map[value.Key]value.Tuple)
	}
	t.graveyard[k] = t.rows[slot]
	t.indexDelete(slot, t.rows[slot])
	delete(t.pk, k)
	t.keyRemoved(k)
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	return true
}

// GetAny returns the live row for k, or the last deleted version if the
// row is gone. Join-path evaluation uses it so tuples referenced by a
// trace stay resolvable after workload execution deleted them.
func (t *Table) GetAny(k value.Key) (value.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, row, ok := t.resolve(k)
	return row, ok
}

// resolve is GetAny that also reports where the row lives, with one
// primary-key probe: slot is the live row's slot, or -1 when row is the
// last deleted version. The caller holds the read lock, or a View.
func (t *Table) resolve(k value.Key) (slot int, row value.Tuple, ok bool) {
	if slot, ok := t.pk[k]; ok {
		return slot, t.rows[slot], true
	}
	row, ok = t.graveyard[k]
	return -1, row, ok
}

// rowAt returns the live row in slot, or nil when the slot is free or
// out of range; the caller holds the read lock, or a View.
func (t *Table) rowAt(slot int) value.Tuple {
	if slot < 0 || slot >= len(t.rows) {
		return nil
	}
	return t.rows[slot]
}

// resolveEncoded is resolve for a key still in its encoded byte form:
// the map probes convert without copying, so join-path navigation looks
// rows up without allocating a Key.
func (t *Table) resolveEncoded(k []byte) (slot int, row value.Tuple, ok bool) {
	if s, live := t.pk[value.Key(k)]; live {
		return s, t.rows[s], true
	}
	row, ok = t.graveyard[value.Key(k)]
	return -1, row, ok
}

// KeyAt returns the i-th primary key of the live rows in sorted
// (encoded-key) order: generators sampling one random row call Len then
// KeyAt. The deterministic order matters, since map-iteration order would
// make traces differ between runs. The sorted list is built on the first
// call and kept in step by every later insert and delete. It panics if i
// is out of range.
func (t *Table) KeyAt(i int) value.Key {
	t.mu.RLock()
	if t.sorted != nil {
		k := t.sorted[i]
		t.mu.RUnlock()
		return k
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sortedLocked()[i]
}

// sortedLocked builds the sorted key list if it does not exist yet; the
// caller holds the write lock.
func (t *Table) sortedLocked() []value.Key {
	if t.sorted == nil {
		t.sorted = make([]value.Key, 0, len(t.pk))
		for k := range t.pk {
			t.sorted = append(t.sorted, k)
		}
		slices.Sort(t.sorted)
	}
	return t.sorted
}

// keyAdded and keyRemoved keep the sorted key list, once built, in step
// with the primary-key index; the caller holds the write lock.
func (t *Table) keyAdded(k value.Key) {
	if t.sorted != nil {
		i, _ := slices.BinarySearch(t.sorted, k)
		t.sorted = slices.Insert(t.sorted, i, k)
	}
}

func (t *Table) keyRemoved(k value.Key) {
	if t.sorted != nil {
		if i, ok := slices.BinarySearch(t.sorted, k); ok {
			t.sorted = slices.Delete(t.sorted, i, i+1)
		}
	}
}

// Touch records one committed write to the tuple identified by k,
// incrementing its version counter, and returns the new version. The key
// need not identify a live row: the durable stores of the 2PC chaos
// replay hold versions only. Touch is the redo-apply target of WAL touch
// records, so its effect must be (and is) a pure function of the number
// of touches applied.
func (t *Table) Touch(k value.Key) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.touchLocked(k)
}

func (t *Table) touchLocked(k value.Key) uint64 {
	if t.versions == nil {
		t.versions = make(map[value.Key]version)
	}
	v, ok := t.versions[k]
	if !ok {
		v.key = k
		if t.vsynced {
			t.vadded = append(t.vadded, k)
		}
	}
	v.n++
	t.versions[v.key] = v // the held key: storing it allocates nothing
	cTouches.Inc()
	return v.n
}

// versionedKey returns the table's copy of key when the table already
// versions key, else a new Key: decoding a touch allocates only for a
// key the touch adds. A nil table versions no keys.
func (t *Table) versionedKey(key []byte) value.Key {
	if t != nil {
		t.mu.RLock()
		v, ok := t.versions[value.Key(key)]
		t.mu.RUnlock()
		if ok {
			return v.key
		}
	}
	return value.Key(key)
}

// untouch reverses one Touch (the commit undo path).
func (t *Table) untouch(k value.Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.versions == nil {
		return
	}
	switch v := t.versions[k]; {
	case v.n == 1:
		delete(t.versions, k)
		t.vsorted, t.vadded, t.vsynced = nil, nil, false
	case v.n > 1:
		v.n--
		t.versions[v.key] = v
	}
}

// versionKeysLocked returns the version keys in ascending order: the
// keys added since the last call are sorted and merged into the list
// that call left, in place. The caller holds the write lock.
func (t *Table) versionKeysLocked() []value.Key {
	if !t.vsynced {
		t.vsorted = appendSortedKeys(t.vsorted[:0], t.versions)
		t.vadded, t.vsynced = t.vadded[:0], true
		return t.vsorted
	}
	if len(t.vadded) == 0 {
		return t.vsorted
	}
	slices.Sort(t.vadded)
	i, j := len(t.vsorted)-1, len(t.vadded)-1
	t.vsorted = slices.Grow(t.vsorted, len(t.vadded))[:len(t.vsorted)+len(t.vadded)]
	for w := len(t.vsorted) - 1; j >= 0; w-- {
		if i >= 0 && t.vsorted[i] > t.vadded[j] {
			t.vsorted[w] = t.vsorted[i]
			i--
		} else {
			t.vsorted[w] = t.vadded[j]
			j--
		}
	}
	clear(t.vadded)
	t.vadded = t.vadded[:0]
	return t.vsorted
}

// secIndex is a single-column secondary index: the column's position in
// the row and, per value, the slots of the live rows holding it.
type secIndex struct {
	ci    int
	slots map[value.Value][]int
}

// LookupRows returns the live rows whose col equals v, using a lazily
// built (and thereafter maintained) secondary hash index. The rows are
// references to the stored rows, as Get returns them, in the index's
// deterministic order; no lock is held once LookupRows returns, so the
// caller may mutate the table while walking the result. A caller that
// needs a row's primary key computes it with PKOf. The fast path (index
// already built) runs under the read lock; the first lookup per column
// upgrades to the write lock to build the index. An unknown column
// panics.
func (t *Table) LookupRows(col string, v value.Value) []value.Tuple {
	t.mu.RLock()
	if idx, ok := t.sec[col]; ok {
		out := t.rowsAt(idx.slots[v])
		t.mu.RUnlock()
		return out
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowsAt(t.secondaryIndexLocked(col).slots[v])
}

// rowsAt returns the rows in the given slots; the caller holds at least
// the read lock.
func (t *Table) rowsAt(slots []int) []value.Tuple {
	if len(slots) == 0 {
		return nil
	}
	out := make([]value.Tuple, len(slots))
	for i, slot := range slots {
		out[i] = t.rows[slot]
	}
	return out
}

func (t *Table) secondaryIndexLocked(col string) secIndex {
	if t.sec == nil {
		t.sec = make(map[string]secIndex)
	}
	if idx, ok := t.sec[col]; ok {
		return idx
	}
	ci := t.meta.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("db: %s: secondary index on unknown column %s", t.meta.Name, col))
	}
	// Build by slot order (not pk-map order) so lookup result order — and
	// therefore any trace generated from it — is deterministic.
	idx := secIndex{ci: ci, slots: make(map[value.Value][]int)}
	for slot, row := range t.rows {
		if row != nil {
			idx.slots[row[ci]] = append(idx.slots[row[ci]], slot)
		}
	}
	t.sec[col] = idx
	cSecIdxBuilds.Inc()
	return idx
}

func (t *Table) indexInsert(slot int, row value.Tuple) {
	for _, idx := range t.sec {
		v := row[idx.ci]
		idx.slots[v] = append(idx.slots[v], slot)
	}
}

func (t *Table) indexDelete(slot int, row value.Tuple) {
	for _, idx := range t.sec {
		v := row[idx.ci]
		slots := idx.slots[v]
		for i, s := range slots {
			if s == slot {
				slots[i] = slots[len(slots)-1]
				slots = slots[:len(slots)-1]
				break
			}
		}
		if len(slots) == 0 {
			delete(idx.slots, v)
		} else {
			idx.slots[v] = slots
		}
	}
}
