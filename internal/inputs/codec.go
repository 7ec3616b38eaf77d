package inputs

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// enc appends the file's primitives: unsigned and zigzag varints and
// uvarint-length-prefixed strings.
type enc []byte

func (e *enc) uv(v uint64) { *e = binary.AppendUvarint(*e, v) }
func (e *enc) sv(v int64)  { *e = binary.AppendVarint(*e, v) }
func (e *enc) u8(v byte)   { *e = append(*e, v) }

func (e *enc) str(s string) {
	e.uv(uint64(len(s)))
	*e = append(*e, s...)
}

// dec reads what enc writes; the first malformed read poisons it and
// every later read returns zero.
type dec struct {
	b   []byte
	bad bool
}

// uv reads a uvarint, which must be minimally encoded: a longer form
// of the same value is not what enc writes.
func (d *dec) uv() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// sv reads a minimally encoded zigzag varint.
func (d *dec) sv() int64 {
	u := d.uv()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// i32 reads a zigzag varint that must fit an int32.
func (d *dec) i32() int32 {
	v := d.sv()
	if v != int64(int32(v)) {
		d.bad = true
		return 0
	}
	return int32(v)
}

func (d *dec) u8() byte {
	if d.bad || len(d.b) == 0 {
		d.bad = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// count reads a length or count, poisoning the reader when it cannot
// fit in the bytes left (each counted item takes at least one byte), so
// a corrupt count cannot size a huge allocation.
func (d *dec) count() int {
	n := d.uv()
	if n > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count()
	if d.bad {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// index reads an index into a table of n entries.
func (d *dec) index(n int) int {
	i := d.uv()
	if i >= uint64(n) {
		d.bad = true
		return 0
	}
	return int(i)
}

// ref reads an index into strs and returns the string it names.
func (d *dec) ref(strs []string) string {
	i := d.index(len(strs))
	if d.bad {
		return ""
	}
	return strs[i]
}

// done reports a reader that consumed its payload exactly.
func (d *dec) done() bool { return !d.bad && len(d.b) == 0 }

// used tracks which entries of a decoded table the payload referenced:
// enc writes no entry nothing references. A nil used tracks nothing.
type used []bool

func (u used) ref(d *dec, strs []string) string {
	i := d.index(len(strs))
	if d.bad {
		return ""
	}
	if u != nil {
		u[i] = true
	}
	return strs[i]
}

func (u used) all() bool {
	for _, ok := range u {
		if !ok {
			return false
		}
	}
	return true
}

// table is a sorted, de-duplicated string table with its index.
type table struct {
	strs []string
	idx  map[string]int
}

func newTable(strs []string) *table {
	slices.Sort(strs)
	strs = slices.Compact(strs)
	t := &table{strs: strs, idx: make(map[string]int, len(strs))}
	for i, s := range strs {
		t.idx[s] = i
	}
	return t
}

func (t *table) encode(e *enc) {
	e.uv(uint64(len(t.strs)))
	for _, s := range t.strs {
		e.str(s)
	}
}

// readList reads a list of strings in any order.
func readList(d *dec) []string {
	n := d.count()
	out := make([]string, 0, n)
	for i := 0; i < n && !d.bad; i++ {
		out = append(out, d.str())
	}
	return out
}

// readTable reads a table, which must be sorted and duplicate-free.
func readTable(d *dec) []string {
	out := readList(d)
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			d.bad = true
		}
	}
	return out
}

func formatErr(section, what string) error {
	return fmt.Errorf("%w: section %q: %s", ErrFormat, section, what)
}
