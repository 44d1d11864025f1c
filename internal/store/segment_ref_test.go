package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"testing"

	"rdfanalytics/internal/rdf"
)

// bufferedWriteSegment is the segment writer the streamed one replaced,
// kept verbatim but for its name as the oracle for the segment bytes: it
// takes the whole snapshot as one byte slice (Graph.SnapshotBinary into a
// bytes.Buffer) and writes header, snapshot, count and CRC in one pass.
func bufferedWriteSegment(dir string, epoch uint64, snap []byte, triples int) (*Segment, error) {
	tmp, err := os.CreateTemp(dir, "segment-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	sum := crc32.NewIEEE()
	w := io.MultiWriter(tmp, sum)
	var hdr [21]byte
	copy(hdr[:], segmentMagic)
	hdr[4] = segmentVersion
	binary.BigEndian.PutUint64(hdr[5:], epoch)
	binary.BigEndian.PutUint64(hdr[13:], uint64(len(snap)))
	writeErr := func() error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(snap); err != nil {
			return err
		}
		var n8 [8]byte
		binary.BigEndian.PutUint64(n8[:], uint64(triples))
		if _, err := w.Write(n8[:]); err != nil {
			return err
		}
		var trailer [4]byte
		binary.BigEndian.PutUint32(trailer[:], sum.Sum32())
		_, err := tmp.Write(trailer[:])
		return err
	}()
	if writeErr != nil {
		tmp.Close()
		return nil, writeErr
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	path := segmentPath(dir, epoch)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &Segment{Epoch: epoch, Path: path, Triples: triples}, nil
}

// TestStreamedSegmentMatchesBuffered: the streamed writer produces exactly
// the bytes and the Segment the buffered one did for the same graph — the
// format did not change, only where the snapshot waits on its way to disk.
func TestStreamedSegmentMatchesBuffered(t *testing.T) {
	triple := func(rng *rand.Rand) rdf.Triple {
		var o rdf.Term
		switch rng.Intn(3) {
		case 0:
			o = iri(fmt.Sprintf("o%d", rng.Intn(5000)))
		case 1:
			o = rdf.NewInteger(int64(rng.Intn(100000)))
		default:
			o = rdf.NewLangString(fmt.Sprintf("label %d", rng.Intn(3000)), "en")
		}
		return rdf.Triple{S: iri(fmt.Sprintf("s%d", rng.Intn(4000))), P: iri(fmt.Sprintf("p%d", rng.Intn(12))), O: o}
	}
	graphs := map[string]func() *rdf.Graph{
		"empty": rdf.NewGraph,
		"one": func() *rdf.Graph {
			g := rdf.NewGraph()
			g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: rdf.NewString("v")})
			return g
		},
		"20k": func() *rdf.Graph {
			rng := rand.New(rand.NewSource(1))
			g := rdf.NewGraph()
			for g.Len() < 20000 {
				g.Add(triple(rng))
			}
			return g
		},
		"interleaved-deletes": func() *rdf.Graph {
			rng := rand.New(rand.NewSource(2))
			g := rdf.NewGraph()
			var live []rdf.Triple
			for op := 0; op < 30000; op++ {
				if rng.Intn(3) == 0 && len(live) > 0 {
					i := rng.Intn(len(live))
					g.Remove(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				if tr := triple(rng); g.Add(tr) {
					live = append(live, tr)
				}
			}
			return g
		},
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			g := build()
			dir := t.TempDir()
			streamed := buildSegment(t, dir, g)
			got, err := os.ReadFile(streamed.Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(streamed.Path); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			epoch, triples, err := g.SnapshotBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			buffered, err := bufferedWriteSegment(dir, epoch, buf.Bytes(), triples)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(buffered.Path)
			if err != nil {
				t.Fatal(err)
			}
			if *streamed != *buffered {
				t.Fatalf("streamed segment %+v, buffered %+v", *streamed, *buffered)
			}
			if !bytes.Equal(got, want) {
				off := 0
				for off < len(got) && off < len(want) && got[off] == want[off] {
					off++
				}
				t.Fatalf("streamed segment (%d bytes) differs from the buffered one (%d bytes) at offset %d", len(got), len(want), off)
			}
			if _, img, err := loadSegment(buffered.Path); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(snapshotBytes(t, img), snapshotBytes(t, g)) {
				t.Fatal("segment loads to a different graph than it was cut from")
			}
		})
	}
}
