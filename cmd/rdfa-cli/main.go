// Command rdfa-cli is the terminal side of RDF-Analytics. With no
// subcommand it is a client for the faceted-analytics interaction model:
// the GUI of Fig 5.1/6.2 rendered as text, driven by commands instead of
// clicks. Its subcommands are the reproduction's command-line tools.
//
// Usage:
//
//	rdfa-cli -data products-small                  the REPL
//	rdfa-cli sparql -data products-small '<query>' evaluate SPARQL
//	rdfa-cli hifun -data invoices-small -run '(takesPlaceAt, inQuantity, SUM)'
//	rdfa-cli void -data products -scale 1000       VoID statistics as Turtle
//	rdfa-cli gen -data products -format nt         emit a dataset
//	rdfa-cli paper [-quick] [E1 E5 …]              the paper's tables and figures
//
// Commands (inside the REPL):
//
//	show                          render the current state (facets, objects)
//	class <Name>                  class-based transition
//	click <path> <value>          property transition; path = p1/p2/...
//	range <path> <op> <value>     range filter, e.g. range USBPorts >= 2
//	group <path> [derive]         toggle the G button, e.g. group releaseDate YEAR
//	agg <path|ID> <OP>            toggle the Σ button, e.g. agg price AVG
//	run                           execute the analytic query, print the Answer Frame
//	chart <bar|pie|column|line|treemap|spiral> <file.svg>   save a chart of the answer
//	save <file.json>              snapshot the session (replayable bookmark)
//	load                          explore the answer with FS (HAVING / nesting)
//	close                         pop back to the outer dataset
//	back | reset                  undo / restart
//	hifun | sparql <query>        show the HIFUN query / run raw SPARQL
//	trace                         print the timing tree of the last run
//	profile                       EXPLAIN ANALYZE the current analytic query:
//	                              run it and print the operator profile (wall
//	                              time, rows, est vs actual cardinality with
//	                              q-error)
//	quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/viz"
)

// A command registers its flags on fs and returns what runs once they are
// parsed.
type command func(fs *flag.FlagSet) func(in io.Reader, out, errOut io.Writer) error

var subcommands = map[string]command{
	"sparql": sparqlCommand,
	"hifun":  hifunCommand,
	"void":   voidCommand,
	"gen":    genCommand,
	"paper":  paperCommand,
}

const usage = `usage:
  rdfa-cli [flags]                 the faceted-analytics REPL
  rdfa-cli sparql [flags] <query>  evaluate SPARQL against a dataset
  rdfa-cli hifun [flags] <query>   translate (and with -run execute) a HIFUN query
  rdfa-cli void [flags]            profile a dataset as VoID RDF
  rdfa-cli gen [flags]             emit a dataset as Turtle, N-Triples or a binary snapshot
  rdfa-cli paper [flags] [E…]      print the paper's tables and figures (all without arguments)
Run 'rdfa-cli <subcommand> -h' for a subcommand's flags.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run dispatches args to the REPL or a subcommand and returns the exit
// status: 2 for a usage error, 1 for a failed command.
func run(args []string, in io.Reader, out, errOut io.Writer) int {
	name, cmd := "rdfa-cli", command(replCommand)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		if cmd = subcommands[args[0]]; cmd == nil {
			fmt.Fprintf(errOut, "rdfa-cli: unknown subcommand %q\n%s", args[0], usage)
			return 2
		}
		name, args = "rdfa-cli "+args[0], args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Usage = func() {
		fmt.Fprint(errOut, usage)
		fmt.Fprintf(errOut, "flags of %s:\n", name)
		fs.PrintDefaults()
	}
	exec := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := exec(in, out, errOut); err != nil {
		fmt.Fprintf(errOut, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

// source is the dataset a command works on, as -data and -scale name it.
type source struct {
	data  string
	scale int
}

// dataset registers -data (defaulting to def) and -scale on fs: the one
// place a command declares them.
func dataset(fs *flag.FlagSet, def string) *source {
	src := &source{}
	fs.StringVar(&src.data, "data", def, "dataset: products[-small], invoices[-small], stats, or a .ttl/.nt file")
	fs.IntVar(&src.scale, "scale", 0, "dataset scale for generated datasets (0 = default)")
	return src
}

func (s *source) load() (*rdf.Graph, string, error) { return datagen.Load(s.data, s.scale) }

func replCommand(fs *flag.FlagSet) func(io.Reader, io.Writer, io.Writer) error {
	src := dataset(fs, "products-small")
	restore := fs.String("restore", "", "restore a session snapshot (JSON file) over the dataset")
	fs.BoolVar(&traceRuns, "trace", false, "print the per-phase timing tree after every run")
	version := fs.Bool("version", false, "print build version and exit")
	return func(in io.Reader, out, _ io.Writer) error {
		if *version {
			fmt.Fprintf(out, "rdfa-cli %s (%s)\n", obs.Version(), runtime.Version())
			return nil
		}
		g, ns, err := src.load()
		if err != nil {
			return err
		}
		var sess *core.Session
		if *restore != "" {
			snap, err := os.ReadFile(*restore)
			if err != nil {
				return err
			}
			if sess, err = core.RestoreSession(g, snap); err != nil {
				return err
			}
			fmt.Fprintf(out, "restored session from %s (level %d, %d objects)\n",
				*restore, sess.Depth(), sess.State().Ext.Len())
		} else {
			sess = core.NewSession(g, ns)
		}
		fmt.Fprintf(out, "rdfa-cli: %q loaded (%d triples). Type 'show' to see the state, 'quit' to exit.\n",
			src.data, g.Stats().Triples)
		repl(sess, ns, in, out)
		return nil
	}
}

// traceRuns makes `run` print its timing tree (also available on demand
// via the `trace` command).
var traceRuns bool

func repl(sess *core.Session, ns string, in io.Reader, out io.Writer) {
	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := execute(sess, ns, line, out); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}

func execute(sess *core.Session, ns string, line string, out io.Writer) error {
	ns = sess.NS() // nested levels resolve names in the answer namespace
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "show":
		fmt.Fprint(out, sess.ComputeUIState(20, false).RenderText())
	case "class":
		if len(args) != 1 {
			return fmt.Errorf("usage: class <Name>")
		}
		if err := sess.ClickClass(resolve(ns, args[0])); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d objects\n", sess.State().Ext.Len())
	case "click":
		if len(args) != 2 {
			return fmt.Errorf("usage: click <path> <value>")
		}
		if err := sess.ClickValue(parsePath(ns, args[0]), parseValue(ns, args[1])); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d objects\n", sess.State().Ext.Len())
	case "range":
		if len(args) != 3 {
			return fmt.Errorf("usage: range <path> <op> <value>")
		}
		if err := sess.ClickRange(parsePath(ns, args[0]), args[1], parseValue(ns, args[2])); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d objects\n", sess.State().Ext.Len())
	case "expand":
		if len(args) != 1 {
			return fmt.Errorf("usage: expand <path>")
		}
		m := sess.Model()
		for _, vc := range m.Decode(m.ExpandPath(sess.State(), parsePath(ns, args[0]))) {
			fmt.Fprintf(out, "  %s (%d)\n", vc.Value.LocalName(), vc.Count)
		}
	case "pivot":
		if len(args) != 1 {
			return fmt.Errorf("usage: pivot <property>  (prefix with ^ for inverse)")
		}
		hop := args[0]
		inverse := strings.HasPrefix(hop, "^")
		hop = strings.TrimPrefix(hop, "^")
		if err := sess.SwitchFocus(facet.PathStep{P: resolve(ns, hop), Inverse: inverse}); err != nil {
			return err
		}
		fmt.Fprintf(out, "focus switched: %d objects\n", sess.State().Ext.Len())
	case "group":
		if len(args) < 1 {
			return fmt.Errorf("usage: group <path> [derive]")
		}
		spec := core.GroupSpec{Path: parsePath(ns, args[0])}
		if len(args) > 1 {
			spec.Derive = strings.ToUpper(args[1])
		}
		if err := sess.ClickGroupBy(spec); err != nil {
			return err
		}
		fmt.Fprintf(out, "group-by: %v\n", sess.Analytics().GroupBy)
	case "agg":
		if len(args) != 2 {
			return fmt.Errorf("usage: agg <path|ID> <OP>")
		}
		var m core.MeasureSpec
		if !strings.EqualFold(args[0], "ID") {
			m.Path = parsePath(ns, args[0])
		}
		if err := sess.ClickAggregate(m, hifun.Operation{Op: hifun.AggOp(strings.ToUpper(args[1]))}); err != nil {
			return err
		}
		fmt.Fprintf(out, "measure: %s, ops: %v\n", sess.Analytics().Measure, sess.Analytics().Ops)
	case "run":
		ans, err := sess.RunAnalytics()
		if err != nil {
			return err
		}
		fmt.Fprint(out, ans.String())
		if traceRuns {
			fmt.Fprint(out, "\n"+sess.LastTrace().Tree())
		}
	case "trace":
		tr := sess.LastTrace()
		if tr == nil {
			return fmt.Errorf("no analytic query has run yet")
		}
		fmt.Fprint(out, tr.Tree())
	case "profile":
		ans, err := sess.RunAnalytics()
		if err != nil {
			return err
		}
		_, prof := sess.LastRun()
		fmt.Fprint(out, prof.Tree())
		fmt.Fprintf(out, "(%d rows)\n", ans.Table.Len())
	case "chart":
		if len(args) != 2 {
			return fmt.Errorf("usage: chart <bar|pie|column|line|treemap|spiral> <file.svg>")
		}
		ans := sess.Answer()
		if ans == nil {
			return fmt.Errorf("run an analytic query first")
		}
		series, err := viz.AnswerSeries(ans, 0)
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[1], []byte(viz.ChartSVG(args[0], series)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", args[1])
	case "save":
		if len(args) != 1 {
			return fmt.Errorf("usage: save <file.json>")
		}
		data, err := sess.Snapshot()
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[0], data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "session saved to %s\n", args[0])
	case "load":
		if err := sess.LoadAnswerAsDataset(); err != nil {
			return err
		}
		fmt.Fprintf(out, "answer loaded as dataset (level %d); facets are the answer columns\n", sess.Depth())
	case "close":
		if err := sess.CloseLevel(); err != nil {
			return err
		}
		fmt.Fprintf(out, "back at level %d\n", sess.Depth())
	case "back":
		if err := sess.Back(); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d objects\n", sess.State().Ext.Len())
	case "reset":
		sess.Reset()
		fmt.Fprintln(out, "reset")
	case "hifun":
		q, err := sess.BuildHIFUNQuery()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, q)
	case "sparql":
		if len(args) == 0 {
			return fmt.Errorf("usage: sparql <query>")
		}
		return queryRun{}.print(out, sess.Model().G, strings.Join(args, " "))
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// resolve maps a local name (or full IRI) to a term in the session's
// namespace, honoring the answer namespace at nested levels.
func resolve(ns, name string) rdf.Term {
	if strings.Contains(name, "://") {
		return rdf.NewIRI(name)
	}
	return rdf.NewIRI(ns + name)
}

func parsePath(ns, s string) facet.Path {
	var path facet.Path
	for _, hop := range strings.Split(s, "/") {
		inverse := strings.HasPrefix(hop, "^")
		hop = strings.TrimPrefix(hop, "^")
		path = append(path, facet.PathStep{P: resolve(ns, hop), Inverse: inverse})
	}
	return path
}

// parseValue interprets a CLI value: integer, decimal, date, boolean or a
// name in the dataset namespace.
func parseValue(ns, s string) rdf.Term {
	if s == "true" || s == "false" {
		return rdf.NewTyped(s, rdf.XSDBoolean)
	}
	if len(s) == 10 && s[4] == '-' && s[7] == '-' {
		return rdf.NewTyped(s, rdf.XSDDate)
	}
	numeric := true
	dot := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '-' && i == 0:
		case r == '.' && !dot:
			dot = true
		default:
			numeric = false
		}
	}
	if numeric && s != "" && s != "-" {
		if dot {
			return rdf.NewTyped(s, rdf.XSDDecimal)
		}
		return rdf.NewTyped(s, rdf.XSDInteger)
	}
	if strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) {
		return rdf.NewString(strings.Trim(s, `"`))
	}
	return resolve(ns, s)
}
