package rdf

// DiffLoad lets the external tests compare LoadTurtle with its oracle.
var DiffLoad = diffLoad
