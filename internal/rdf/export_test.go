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
