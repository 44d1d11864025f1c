package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/leakcheck"
	"rdfanalytics/internal/rdf"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestParseValue(t *testing.T) {
	ns := "http://e/"
	cases := []struct {
		in   string
		want rdf.Term
	}{
		{"42", rdf.NewTyped("42", rdf.XSDInteger)},
		{"-3", rdf.NewTyped("-3", rdf.XSDInteger)},
		{"3.14", rdf.NewTyped("3.14", rdf.XSDDecimal)},
		{"true", rdf.NewTyped("true", rdf.XSDBoolean)},
		{"2021-06-10", rdf.NewTyped("2021-06-10", rdf.XSDDate)},
		{"DELL", rdf.NewIRI(ns + "DELL")},
		{`"hello"`, rdf.NewString("hello")},
		{"http://x/y", rdf.NewIRI("http://x/y")},
	}
	for _, c := range cases {
		if got := parseValue(ns, c.in); got != c.want {
			t.Errorf("parseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParsePath(t *testing.T) {
	ns := "http://e/"
	p := parsePath(ns, "manufacturer/origin")
	if len(p) != 2 || p[0].P != rdf.NewIRI(ns+"manufacturer") || p[1].P != rdf.NewIRI(ns+"origin") {
		t.Fatalf("path = %v", p)
	}
	p = parsePath(ns, "^manufacturer")
	if len(p) != 1 || !p[0].Inverse {
		t.Fatalf("inverse path = %v", p)
	}
}

// TestExecuteScript drives the REPL command layer through a full session:
// Example 2 plus charting and nesting, asserting on the outputs.
func TestExecuteScript(t *testing.T) {
	g, ns, err := datagen.Load("products-small", 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(g, ns)
	tmp, err := os.CreateTemp(t.TempDir(), "chart-*.svg")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	snapFile := tmp.Name() + ".json"
	script := []string{
		"show",
		"class Laptop",
		"pivot manufacturer",
		"back",
		"expand manufacturer/origin",
		"save " + snapFile,
		"group manufacturer/origin",
		"agg ID COUNT",
		"hifun",
		"run",
		"chart pie " + tmp.Name(),
		"load",
		"show",
		"close",
		"range USBPorts >= 2",
		"back",
		"reset",
		"sparql SELECT ?s WHERE { ?s a <" + ns + "Laptop> }",
	}
	for _, line := range script {
		if err := execute(sess, ns, line, out); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	svg, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Error("chart file not written")
	}
	// Unknown command and bad usages error without panicking, and refuse
	// what the HTTP handlers refuse: a click neither run nor a saved
	// snapshot could take.
	for _, bad := range []string{"nonsense", "class", "agg price NOPE", "chart pie",
		"range USBPorts ~ 2", "group releaseDate DECADE"} {
		if err := execute(sess, ns, bad, out); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
	for _, line := range []string{"class Laptop", "agg ID COUNT", "run", "save " + snapFile} {
		if err := execute(sess, ns, line, out); err != nil {
			t.Fatalf("%q after the refused clicks: %v", line, err)
		}
	}
	snap, err := os.ReadFile(snapFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RestoreSession(g, snap); err != nil {
		t.Errorf("snapshot after the refused clicks does not restore: %v", err)
	}
}

// TestREPLSparql: the REPL's sparql command prints through the sparql
// subcommand's path, so an ORDER BY keeps its order and an ASK answers.
func TestREPLSparql(t *testing.T) {
	g, ns, err := datagen.Load("products-small", 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(g, ns)
	var out bytes.Buffer
	if err := execute(sess, ns, "sparql SELECT ?p WHERE { ?s <"+ns+"price> ?p } ORDER BY DESC(?p)", &out); err != nil {
		t.Fatal(err)
	}
	var prices []int
	for _, line := range strings.Split(out.String(), "\n")[2:] {
		if n, err := strconv.Atoi(strings.TrimSpace(line)); err == nil {
			prices = append(prices, n)
		}
	}
	if len(prices) < 2 || !slices.IsSortedFunc(prices, func(a, b int) int { return b - a }) {
		t.Errorf("ORDER BY DESC(?p) printed prices %v:\n%s", prices, out.String())
	}
	out.Reset()
	if err := execute(sess, ns, "sparql ASK { ?s a <"+ns+"Laptop> }", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "true\n" {
		t.Errorf("ASK printed %q, want true", out.String())
	}
}

// TestSubcommands runs each subcommand in process, as main would.
func TestSubcommands(t *testing.T) {
	cli := func(t *testing.T, args ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errOut); code != 0 {
			t.Fatalf("rdfa-cli %q: exit %d: %s", args, code, errOut.String())
		}
		return out.String()
	}
	laptops := "SELECT ?s WHERE { ?s a <" + datagen.ExampleNS + "Laptop> }"
	t.Run("sparql", func(t *testing.T) {
		if table := cli(t, "sparql", "-data", "products-small", laptops); !strings.Contains(table, "laptop1") || !strings.HasSuffix(table, " rows)\n") {
			t.Errorf("table:\n%s", table)
		}
		if csv := cli(t, "sparql", "-data", "products-small", "-format", "csv", laptops); !strings.HasPrefix(csv, "s\n") || !strings.Contains(csv, "laptop1") {
			t.Errorf("csv:\n%s", csv)
		}
		var res struct {
			Results struct{ Bindings []map[string]any }
		}
		if err := json.Unmarshal([]byte(cli(t, "sparql", "-data", "products-small", "-format", "json", laptops)), &res); err != nil || len(res.Results.Bindings) == 0 {
			t.Errorf("json: %v, %d bindings", err, len(res.Results.Bindings))
		}
	})
	t.Run("hifun", func(t *testing.T) {
		out := cli(t, "hifun", "-data", "invoices-small", "-run", "(brand.delivers, inQuantity, SUM)")
		for _, want := range []string{"GROUP BY", "CocaCola", "PepsiCo"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("void", func(t *testing.T) {
		vd, err := rdf.LoadTurtleString(cli(t, "void", "-data", "products-small"))
		if err != nil || vd.Len() == 0 {
			t.Errorf("VoID output does not load: %v", err)
		}
	})
	t.Run("gen", func(t *testing.T) {
		back, err := rdf.LoadTurtleString(cli(t, "gen", "-data", "products-small", "-format", "nt"))
		if err != nil {
			t.Fatal(err)
		}
		g, _, _ := datagen.Load("products-small", 0)
		if back.Len() != g.Len() {
			t.Errorf("N-Triples reload to %d triples, want %d", back.Len(), g.Len())
		}
	})
	t.Run("unknown", func(t *testing.T) {
		var out, errOut bytes.Buffer
		if code := run([]string{"nonsense"}, nil, &out, &errOut); code == 0 || !strings.Contains(errOut.String(), "usage:") {
			t.Errorf("exit %d, stderr %q", code, errOut.String())
		}
	})
}
