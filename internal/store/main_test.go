package store

import (
	"testing"

	"rdfanalytics/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
