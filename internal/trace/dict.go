package trace

// Dict interns strings to dense uint32 ids in first-seen order. The
// columnar trace representation stores table names, class names and
// encoded primary keys once here and refers to them by id everywhere
// else, so a 10M-access trace carries each distinct string exactly once
// and the hot paths compare ids instead of hashing strings.
//
// Ids are assigned 0,1,2,... in insertion order, which makes interning
// deterministic: two traces built by the same transaction sequence
// produce identical dictionaries. A Dict is not safe for concurrent
// mutation; once fully built it is safe for concurrent readers (the
// evaluator's shards only call Name/Lookup/Len).
type Dict struct {
	ids   map[string]uint32
	names []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// ID interns s, returning its dense id (allocating a new one on first
// sight).
func (d *Dict) ID(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.names))
	d.ids[s] = id
	d.names = append(d.names, s)
	return id
}

// IDBytes is ID for a string held as bytes: it allocates only when it
// interns b, for the dictionary's copy.
func (d *Dict) IDBytes(b []byte) uint32 {
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	return d.ID(string(b))
}

// Name returns the string with the given id. It panics on an out-of-range
// id: ids come from the owning trace, never from external input.
func (d *Dict) Name(id uint32) string { return d.names[id] }

// Len returns the number of interned strings.
func (d *Dict) Len() int { return len(d.names) }

// Names returns the interned strings in id order. The slice is the
// dictionary's backing storage: callers must not mutate it.
func (d *Dict) Names() []string { return d.names }
