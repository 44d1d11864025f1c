package rdf

// DiffLoad lets the external tests compare LoadTurtle with its oracle.
var DiffLoad = diffLoad

// DirectoryBytes is what the two directories occupy — SPO's by subject and
// POS's list of predicates — for the scale report.
func DirectoryBytes(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, ix := range g.ix {
		n += 4*cap(ix.dir.vals) + 4*cap(ix.dir.at)
	}
	return n
}

// DictBytes is what the dictionary occupies — its pages of lexical forms,
// the position and shape of each term, and its hash table — for the scale
// report.
func DictBytes(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d := g.dict
	n := 24*cap(d.pages) + 8*cap(d.at) + 4*cap(d.shapeOf) + 4*cap(d.table)
	for _, pg := range d.pages {
		n += cap(pg)
	}
	return n
}
