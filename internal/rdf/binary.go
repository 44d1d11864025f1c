package rdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"unsafe"
)

// Binary snapshot format for graphs: a dictionary section (terms in ID
// order) followed by a triple section (ID three-tuples, varint-encoded,
// sorted by (s, p, o)). Loading a snapshot is much faster than re-parsing
// Turtle and preserves dictionary IDs, so servers can persist materialized
// graphs and the durable store (internal/store) can use snapshots as
// checkpoint segments.
//
// Layout (version 2):
//
//	magic "RDFA" | version u8
//	termCount uvarint
//	per term: kind u8 | value | datatype | lang   (strings are uvarint len + bytes)
//	tripleCount uvarint
//	per triple: s uvarint | p uvarint | o uvarint (dictionary IDs, strictly
//	            ascending (s,p,o) order)
//
// Version 2 guarantees two properties version 1 documented but broke:
//
//   - Determinism: triples are emitted in sorted ID order, so two snapshots
//     of the same graph are byte-identical (checksummable, dedup-able).
//   - ID stability: ReadBinary interns the dictionary section first, in ID
//     order, then takes the triples by ID — every term keeps the exact ID it
//     had when the snapshot was written, including terms no triple references.
//
// Version-1 files (same layout, unsorted triples) are still readable: the
// dictionary-first decode path restores their IDs too; only the sorted-order
// invariant is not enforced for them.

const (
	binaryMagic = "RDFA"
	// binaryVersion is the current write version. Version 1 had the same
	// byte layout but wrote triples in Go map-iteration order (so identical
	// graphs produced different bytes) and was decoded triple-first (so
	// dictionary IDs were reassigned and orphan terms dropped).
	binaryVersion = 2
	// maxBinaryString bounds a decoded string length; anything larger is
	// treated as corruption rather than allocated.
	maxBinaryString = 1 << 24
	// maxBinaryTerms bounds the decoded dictionary size.
	maxBinaryTerms = 1 << 30
	// maxBinaryPresize caps the allocation pre-sizing hints taken from the
	// header counts: a corrupt count then costs at most one over-sized map,
	// not gigabytes, before the decode fails on the (short) real input.
	maxBinaryPresize = 1 << 20
)

// WriteBinary serializes the graph in the snapshot format. The output is
// deterministic: two calls over the same graph content produce identical
// bytes regardless of insertion history.
func (g *Graph) WriteBinary(w io.Writer) error {
	_, _, err := g.SnapshotBinary(w)
	return err
}

// SnapshotBinary is WriteBinary returning the graph version the snapshot
// captured and the number of triples it holds. Both are read under the same
// lock that guards the serialization, so (bytes, version, triples) is
// atomic — the durable store uses the version as the checkpoint epoch and
// records the count without decoding its own output.
func (g *Graph) SnapshotBinary(w io.Writer) (version uint64, triples int, err error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	version = g.version
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return 0, 0, err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return 0, 0, err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	// Dictionary, in ID order.
	if err := writeUvarint(uint64(g.dict.Len())); err != nil {
		return 0, 0, err
	}
	for id := ID(1); int(id) <= g.dict.Len(); id++ {
		t := g.dict.Term(id)
		if err := bw.WriteByte(byte(t.Kind)); err != nil {
			return 0, 0, err
		}
		if err := writeString(t.Value); err != nil {
			return 0, 0, err
		}
		if err := writeString(t.Datatype); err != nil {
			return 0, 0, err
		}
		if err := writeString(t.Lang); err != nil {
			return 0, 0, err
		}
	}
	// Triples: the SPO permutation as it stands, which is the canonical order.
	triples = g.matchCountIDsLocked(0, 0, 0)
	if err := writeUvarint(uint64(triples)); err != nil {
		return 0, 0, err
	}
	g.ix[spo].scan(spo, key{}, 0, func(s, p, o ID) bool {
		for _, id := range [3]ID{s, p, o} {
			if err = writeUvarint(uint64(id)); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	return version, triples, bw.Flush()
}

// ReadBinary loads a graph from the snapshot format, preserving dictionary
// IDs: the dictionary section is interned first, in ID order, so every term
// (including terms no triple references) keeps the ID it was written with.
// Trailing bytes after the last triple are rejected as corruption.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	g, err := readBinaryInto(br)
	if err != nil {
		return nil, err
	}
	// The triple section is the last one; any byte after it means the file
	// was truncated-and-glued, doubly written, or otherwise corrupt.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("rdf: trailing garbage after snapshot triple section")
	}
	return g, nil
}

func readBinaryInto(br *bufio.Reader) (*Graph, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("rdf: reading snapshot magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("rdf: not a graph snapshot (magic %q)", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != 1 && version != binaryVersion {
		return nil, fmt.Errorf("rdf: unsupported snapshot version %d (this build reads versions 1 and %d; re-export the snapshot with rdfa-cli gen -format rdfb)", version, binaryVersion)
	}
	// Each string of a term is read into a buffer reused for every term; the
	// dictionary copies the form into its pages and a new shape's datatype
	// and tag into the shape table, so nothing is allocated per term.
	var value, datatype, lang []byte
	readBytes := func(buf *[]byte) error {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if n > maxBinaryString {
			return fmt.Errorf("rdf: implausible string length %d", n)
		}
		if uint64(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		*buf = (*buf)[:n]
		_, err = io.ReadFull(br, *buf)
		return err
	}
	view := func(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
	termCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if termCount > maxBinaryTerms {
		return nil, fmt.Errorf("rdf: implausible term count %d", termCount)
	}
	// Dictionary first, in ID order: interning into a fresh graph assigns
	// IDs 1..termCount exactly as written, which is what keeps snapshots
	// ID-stable across save/load (and WAL records replayable by ID).
	g := NewGraph()
	g.dict.Grow(int(min(termCount, maxBinaryPresize)))
	for i := uint64(0); i < termCount; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if TermKind(kind) > KindLiteral {
			return nil, fmt.Errorf("rdf: bad term kind %d", kind)
		}
		for _, buf := range [...]*[]byte{&value, &datatype, &lang} {
			if err := readBytes(buf); err != nil {
				return nil, err
			}
		}
		shape := g.dict.shape(Term{Kind: TermKind(kind), Datatype: view(datatype), Lang: view(lang)})
		if id := g.dict.internLex(value, shape); uint64(id) != i+1 {
			return nil, fmt.Errorf("rdf: duplicate dictionary term at ID %d", i+1)
		}
	}
	tripleCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	readID := func() (ID, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		if v == 0 || v > termCount {
			return 0, fmt.Errorf("rdf: term ID %d out of range", v)
		}
		return ID(v), nil
	}
	readKey := func() (k key, err error) {
		for c := range k {
			if k[c], err = readID(); err != nil {
				return k, err
			}
		}
		return k, nil
	}
	presize := int(min(tripleCount, maxBinaryPresize))
	if version == 1 {
		// Version 1 made no ordering promise and tolerated duplicates.
		keys := make([]key, 0, presize)
		for i := uint64(0); i < tripleCount; i++ {
			k, err := readKey()
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
		slices.SortFunc(keys, key.compare)
		g.load(slices.Compact(keys))
		return g, nil
	}
	// Version 2 promises canonical order; out-of-order or duplicate keys mean
	// the file was not produced by WriteBinary. Strict ascent is what lets
	// each triple's word go straight into SPO's base as it is decoded, its
	// subject counted for the directory (at[s+1]: the triples of subject s).
	bySubject := &g.ix[spo]
	words, at := make([]uint64, 0, presize), make([]uint32, termCount+2)
	var last key
	for i := uint64(0); i < tripleCount; i++ {
		k, err := readKey()
		if err != nil {
			return nil, err
		}
		if i > 0 && last.compare(k) >= 0 {
			return nil, fmt.Errorf("rdf: snapshot triples out of canonical order at index %d", i)
		}
		words, last = append(words, k.word()), k
		at[k[0]+1]++
	}
	if len(words) > 0 {
		for s := 1; s < len(at); s++ {
			at[s] += at[s-1]
		}
		bySubject.base, bySubject.dir.at = words, slices.Clone(at[:last[0]+2])
		g.derivePOS()
	}
	return g, nil
}

// ---- term wire codec ----
//
// The WAL of the durable store frames individual triples outside a snapshot;
// it reuses the snapshot's term encoding via the byte-slice codec below so
// both layers stay in sync.

// AppendTermBinary appends the snapshot wire encoding of t (kind byte, then
// value/datatype/lang as uvarint-length-prefixed strings) to dst.
func AppendTermBinary(dst []byte, t Term) []byte {
	dst = append(dst, byte(t.Kind))
	for _, s := range [...]string{t.Value, t.Datatype, t.Lang} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeTermBinary decodes one term from the front of b, returning the term
// and the number of bytes consumed.
func DecodeTermBinary(b []byte) (Term, int, error) {
	if len(b) < 1 {
		return Term{}, 0, fmt.Errorf("rdf: short term encoding")
	}
	kind := TermKind(b[0])
	if kind > KindLiteral {
		return Term{}, 0, fmt.Errorf("rdf: bad term kind %d", b[0])
	}
	off := 1
	var fields [3]string
	for i := range fields {
		n, sz := binary.Uvarint(b[off:])
		if sz <= 0 || n > maxBinaryString {
			return Term{}, 0, fmt.Errorf("rdf: bad term string length")
		}
		off += sz
		if uint64(len(b)-off) < n {
			return Term{}, 0, fmt.Errorf("rdf: short term encoding")
		}
		fields[i] = string(b[off : off+int(n)])
		off += int(n)
	}
	return Term{Kind: kind, Value: fields[0], Datatype: fields[1], Lang: fields[2]}, off, nil
}
