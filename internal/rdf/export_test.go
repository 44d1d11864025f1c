package rdf

// DiffLoad lets the external tests compare LoadTurtle with its oracle.
var DiffLoad = diffLoad

// DirectoryBytes is what SPO's subject directory occupies, for the scale
// report.
func DirectoryBytes(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return 4 * cap(g.ix[spo].dir)
}
