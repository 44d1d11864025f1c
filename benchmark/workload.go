package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strings"
	"sync"
)

// An op is one generated request. Key names its answer in the golden file
// and is independent of the workload seed: the seed decides which ops run
// in which order, never what a given op asks.
type op struct {
	Class   string // click | expand | run | sparql | update | checkpoint (no request: a Store.Checkpoint call)
	Key     string // golden key; "" for model-checked ops
	Method  string
	Path    string // request target, query string included
	Body    string
	CType   string
	Session string // X-Session header
	// Want, when set, is the canonical answer the benchmark's own model
	// expects (update counts, the running count of inserted notes).
	Want string
	// Ordered is set for SELECTs with ORDER BY: row order is part of the answer.
	Ordered bool
	// Repeat marks a read that repeats an earlier one of the round to hit
	// the answer cache; which query it repeats depends on the seed.
	Repeat bool

	query string  // SPARQL text as sent (cache-busting suffix included)
	act   *action // the interaction, for the direct probes of the traced pass
}

// workload describes one traffic mix: one closed-loop client replaying a
// fixed number of rounds. round returns the op list of round r; every round
// of a workload is the same multiset of ops in a seed-dependent order, so a
// run is the same work on both sides of any comparison and its counts repeat.
type workload struct {
	name    string
	why     string
	laptops int
	durable bool
	// rounds is the length of a run of runSeconds: sized to about that much
	// measured time at the commit that defined the benchmark.
	rounds int
	warmup func(w *workload) []op
	round  func(w *workload, seed int64, r int) []op
	// between runs, untimed, before every round (see dropSessionCaches).
	between []op
	quick   bool
}

// latencyClasses are the op classes whose latency is reported per class.
var latencyClasses = []string{"click", "run", "sparql", "update"}

// classCounts counts the ops of one round by class.
func (w *workload) classCounts() map[string]int {
	counts := map[string]int{}
	for _, o := range w.round(w, 1, 0) {
		counts[o.Class]++
	}
	return counts
}

// roundsToSample is the fewest rounds that yield the samples a p90 needs
// from a class (or set of classes) with perRound ops in every round.
func roundsToSample(perRound int) int { return (minTailSamples + perRound - 1) / perRound }

// roundsFor is the number of rounds a -trace 0 run of the given length
// replays: the workload's fixed count scaled by seconds/runSeconds, never
// fewer than the run's p90 needs. It does not depend on how fast the rounds
// turn out to be.
func (w *workload) roundsFor(seconds float64) int {
	perRound := 0
	for class, n := range w.classCounts() {
		if reported(&sample{class: class}) {
			perRound += n
		}
	}
	return max(1, int(float64(w.rounds)*seconds/runSeconds+0.5), roundsToSample(perRound))
}

// tracedRounds is the number of rounds the untraced pass of a -trace 1 run
// replays: the fewest that give every latency class the workload has its p90.
func (w *workload) tracedRounds() int {
	counts, rounds := w.classCounts(), 1
	for _, class := range latencyClasses {
		if n := counts[class]; n > 0 {
			rounds = max(rounds, roundsToSample(n))
		}
	}
	return rounds
}

func workloads(quick bool) []*workload {
	facet, sparql := scaleFacet, scaleSPARQL
	if quick {
		facet, sparql = scaleQuick, scaleQuick
	}
	return []*workload{
		{name: "facet-sessions", laptops: facet, rounds: 2, quick: quick,
			why:     "replayed exploration sessions: facet+core+server JSON do the work, sparql only inside run",
			warmup:  func(w *workload) []op { return sessionOps(0) },
			round:   facetRound,
			between: dropSessionCaches},
		{name: "sparql-cold", laptops: sparql, rounds: 9, quick: quick,
			why:    "every query text unique: parse, plan, join, aggregate, serialize on each request; bodies exceed the cache",
			warmup: func(w *workload) []op { return coldRound(w, -1, 0)[:8] },
			round:  coldRound},
		{name: "sparql-hot", laptops: sparql, rounds: 23, quick: quick,
			why:    "32-query hot set that fits the cache: cache, middleware and telemetry do the work, the engine none",
			warmup: func(w *workload) []op { return hotOnce() },
			round:  hotRound},
		{name: "mixed-rw", laptops: sparql, rounds: 4, durable: true, quick: quick,
			why:    "hot-set reads with every 4th op a durable update: invalidation, WAL, fsync, checkpoint, restart",
			warmup: func(w *workload) []op { return hotOnce() },
			round:  mixedRound},
	}
}

func findWorkload(name string, quick bool) *workload {
	for _, w := range workloads(quick) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opsDigest fingerprints an op list: same seed, same bytes.
func opsDigest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00%s\x00%s\n", o.Class, o.Key, o.Method, o.Path, o.Body, o.Session, o.Want)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- faceted sessions ----

type step struct {
	P       string `json:"p"`
	Inverse bool   `json:"inverse,omitempty"`
}

type term struct {
	Kind     string `json:"kind"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
}

// action is one interaction of a session script.
type action struct {
	Kind   string // class | value | range | expand | back | groupby | aggregate | run | reset
	Class  string
	Path   []step
	Value  term
	Op     string // range comparison
	Derive string
	Agg    string
}

const xsd = "http://www.w3.org/2001/XMLSchema#"

func path(locals ...string) []step {
	out := make([]step, len(locals))
	for i, l := range locals {
		out[i] = step{P: ns + l}
	}
	return out
}

func intLit(n int) term {
	return term{Kind: "literal", Value: fmt.Sprint(n), Datatype: xsd + "integer"}
}
func dateLit(s string) term { return term{Kind: "literal", Value: s, Datatype: xsd + "date"} }
func iri(local string) term { return term{Kind: "iri", Value: ns + local} }

// scriptCount is the number of distinct session scripts; one round replays
// each of them once.
const scriptCount = 6

// scriptSeed fixes the scripts: they are part of the benchmark's definition,
// not of the workload seed.
const scriptSeed = 20230328

// Facet choices, most popular first; scripts draw from them zipf-skewed.
var (
	filterPool = [][]action{
		{{Kind: "range", Path: path("price"), Op: ">=", Value: intLit(1000)},
			{Kind: "range", Path: path("price"), Op: "<=", Value: intLit(1500)},
			{Kind: "range", Path: path("price"), Op: ">=", Value: intLit(800)}},
		{{Kind: "value", Path: path("USBPorts"), Value: intLit(3)},
			{Kind: "value", Path: path("USBPorts"), Value: intLit(2)},
			{Kind: "range", Path: path("USBPorts"), Op: ">=", Value: intLit(3)}},
		{{Kind: "range", Path: path("releaseDate"), Op: ">=", Value: dateLit("2021-01-01")},
			{Kind: "range", Path: path("releaseDate"), Op: "<=", Value: dateLit("2021-12-31")}},
		{{Kind: "value", Path: path("manufacturer"), Value: iri("Company1")},
			{Kind: "value", Path: path("manufacturer"), Value: iri("Company2")},
			{Kind: "value", Path: path("manufacturer"), Value: iri("Company5")}},
	}
	expandPool = [][]step{
		path("manufacturer", "origin"),
		path("hardDrive", "manufacturer"),
		path("manufacturer", "founder"),
	}
	groupPool = []action{
		{Kind: "groupby", Path: path("manufacturer")},
		{Kind: "groupby", Path: path("manufacturer", "origin")},
		{Kind: "groupby", Path: path("releaseDate"), Derive: "year"},
		{Kind: "groupby", Path: path("USBPorts")},
		{Kind: "groupby", Path: path("hardDrive", "manufacturer")},
		{Kind: "groupby", Path: path("manufacturer", "origin", "locatedAt")},
	}
	measurePool = []action{
		{Kind: "aggregate", Path: path("price"), Agg: "avg"},
		{Kind: "aggregate", Path: []step{}, Agg: "count"},
		{Kind: "aggregate", Path: path("price"), Agg: "sum"},
		{Kind: "aggregate", Path: path("price"), Agg: "max"},
		{Kind: "aggregate", Path: path("USBPorts"), Agg: "avg"},
		{Kind: "aggregate", Path: path("price"), Agg: "min"},
	}
)

// script builds session script i: class click, two filters on different
// facets, expand, back, six G/Σ rounds (groupby, aggregate, run), reset.
// The generator tracks the analytic state so that every run is valid: the
// G button toggles, and re-clicking the only selected Σ operation would
// leave nothing to aggregate.
func script(i int) []action {
	rng := rand.New(rand.NewSource(scriptSeed + int64(i)))
	zipf := func(n int) int { return int(rand.NewZipf(rng, 1.1, 1, uint64(n-1)).Uint64()) }
	acts := []action{{Kind: "class", Class: ns + "Laptop"}}
	f1 := zipf(len(filterPool))
	f2 := (f1 + 1 + rng.Intn(len(filterPool)-1)) % len(filterPool)
	for _, f := range []int{f1, f2} {
		acts = append(acts, filterPool[f][zipf(len(filterPool[f]))])
	}
	acts = append(acts, action{Kind: "expand", Path: expandPool[zipf(len(expandPool))]}, action{Kind: "back"})
	measure, ops := "", map[string]bool{}
	for r := 0; r < 6; r++ {
		acts = append(acts, groupPool[zipf(len(groupPool))])
		var m action
		for {
			m = measurePool[zipf(len(measurePool))]
			mk := fmt.Sprint(m.Path)
			if mk != measure {
				measure, ops = mk, map[string]bool{}
			}
			if !ops[m.Agg] {
				ops[m.Agg] = true
				break
			}
		}
		acts = append(acts, m, action{Kind: "run"})
	}
	return append(acts, action{Kind: "reset"})
}

// request renders the action as the HTTP call the GUI would make.
func (a *action) request() (class, target, body string) {
	j := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	switch a.Kind {
	case "class":
		return "click", "/api/click/class", j(map[string]any{"class": a.Class})
	case "value":
		return "click", "/api/click/value", j(map[string]any{"path": a.Path, "value": a.Value})
	case "range":
		return "click", "/api/click/range", j(map[string]any{"path": a.Path, "op": a.Op, "value": a.Value})
	case "expand":
		return "expand", "/api/expand", j(map[string]any{"path": a.Path})
	case "back":
		return "click", "/api/back", ""
	case "groupby":
		return "click", "/api/groupby", j(map[string]any{"path": a.Path, "derive": a.Derive})
	case "aggregate":
		return "click", "/api/aggregate", j(map[string]any{"path": a.Path, "op": a.Agg})
	case "run":
		return "run", "/api/run", ""
	case "reset":
		return "click", "/api/reset", ""
	}
	panic("unknown action " + a.Kind)
}

// sessionOps is script i as requests of the client's one session.
func sessionOps(i int) []op {
	acts := script(i)
	out := make([]op, len(acts))
	for k := range acts {
		a := &acts[k]
		class, target, body := a.request()
		out[k] = op{Class: class, Key: fmt.Sprintf("s%d/%02d-%s", i, k, a.Kind), Method: "POST",
			Path: target, Body: body, CType: "application/json", Session: "c0", act: a}
	}
	return out
}

// dropSessionCaches makes every round of facet-sessions the same work. A
// session memoizes its Answer Frames per (state, query), so a second replay
// of a script would answer each run from the first replay's memo and never
// reach HIFUN or SPARQL. An effective update makes the server drop every
// session's memo (and, with the graph version, the planner feedback and
// cardinality statistics), so an insert and delete of one scratch triple
// before each round puts the server where it was before the first.
var dropSessionCaches = []op{
	housekeeping("INSERT DATA { <"+ns+"benchScratch> <"+ns+"benchNote> \"scratch\" }", 1, 0),
	housekeeping("DELETE DATA { <"+ns+"benchScratch> <"+ns+"benchNote> \"scratch\" }", 0, 1),
}

func housekeeping(text string, inserted, deleted int) op {
	o := updateOp(text, inserted, deleted)
	o.Class = "housekeeping"
	return o
}

func facetRound(w *workload, seed int64, r int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	var out []op
	for _, i := range rng.Perm(scriptCount) {
		out = append(out, sessionOps(i)...)
	}
	return out
}

// ---- SPARQL ----

const prefix = "PREFIX ex: <" + ns + "> "

// tmpl is one query of the universe: its golden key and text.
type tmpl struct {
	key, text string
	ordered   bool
}

func qf(key, format string, args ...any) tmpl {
	return tmpl{key: key, text: prefix + fmt.Sprintf(format, args...)}
}

// The paper's E5/E6 queries as cmd/hifun2sparql translates them (full IRIs,
// ?xN variables), pinned here as text so that a later change to the
// translator cannot change the load.
func translated() []tmpl {
	typ := "?x1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" + ns + "Laptop> .\n"
	p := func(local string) string { return "<" + ns + local + ">" }
	return []tmpl{
		{key: "e5/q1-avg-price", text: "SELECT (AVG(?x2) AS ?avg_price)\nWHERE {\n" + typ + "?x1 " + p("price") + " ?x2 .\n}"},
		{key: "e5/q2-count-by-origin", text: "SELECT ?x3 (COUNT(?x1) AS ?count)\nWHERE {\n" + typ +
			"?x1 " + p("manufacturer") + " ?x2 .\n?x2 " + p("origin") + " ?x3 .\n}\nGROUP BY ?x3"},
		{key: "e5/q3-avg-by-maker-usb", text: "SELECT ?x2 (AVG(?x4) AS ?avg_price)\nWHERE {\n" + typ +
			"?x1 " + p("manufacturer") + " ?x2 .\n?x1 " + p("USBPorts") + " ?x3 .\nFILTER((?x3 >= 2))\n?x1 " + p("price") + " ?x4 .\n}\nGROUP BY ?x2"},
		{key: "e5/q4-sum-by-maker-origin", text: "SELECT ?x2 ?x4 (SUM(?x5) AS ?sum_price)\nWHERE {\n" + typ +
			"?x1 " + p("manufacturer") + " ?x2 .\n?x1 " + p("manufacturer") + " ?x3 .\n?x3 " + p("origin") + " ?x4 .\n?x1 " + p("price") + " ?x5 .\n}\nGROUP BY ?x2 ?x4\nHAVING (SUM(?x5) > 0)"},
	}
}

// universe is every SPARQL query the benchmark can send, by family. The
// conformance-corpus shapes: star and chain BGPs, GROUP BY/HAVING,
// ORDER BY+LIMIT, DISTINCT over a 4-hop chain, OPTIONAL, BIND.
var universe = sync.OnceValue(func() map[string][]tmpl {
	u := map[string][]tmpl{"e5": translated()}
	for _, k := range []int{500, 800, 1100, 1400} {
		u["avg"] = append(u["avg"], qf(fmt.Sprintf("avg/price-ge-%d", k),
			"SELECT (AVG(?p) AS ?a) (COUNT(?l) AS ?n) WHERE { ?l a ex:Laptop ; ex:price ?p . FILTER(?p >= %d) }", k))
	}
	for usb := 1; usb <= 5; usb++ {
		u["origin"] = append(u["origin"], qf(fmt.Sprintf("origin/usb-%d", usb),
			"SELECT ?o (COUNT(?l) AS ?n) WHERE { ?l ex:USBPorts %d ; ex:manufacturer ?m . ?m ex:origin ?o } GROUP BY ?o", usb))
		u["chain"] = append(u["chain"], qf(fmt.Sprintf("chain/usb-%d", usb),
			"SELECT DISTINCT ?cont ?c WHERE { ?l ex:USBPorts %d ; ex:hardDrive ?h . ?h ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont }", usb))
	}
	for _, k := range []int{2, 3, 4} {
		u["maker"] = append(u["maker"], qf(fmt.Sprintf("maker/usb-ge-%d", k),
			"SELECT ?m (AVG(?p) AS ?a) WHERE { ?l ex:manufacturer ?m ; ex:USBPorts ?u ; ex:price ?p . FILTER(?u >= %d) } GROUP BY ?m", k))
	}
	for _, x := range []int{1000000, 2000000, 3000000} {
		u["having"] = append(u["having"], qf(fmt.Sprintf("having/sum-gt-%d", x),
			"SELECT ?m ?o (SUM(?p) AS ?s) WHERE { ?l ex:manufacturer ?m ; ex:price ?p . ?m ex:origin ?o } GROUP BY ?m ?o HAVING (SUM(?p) > %d)", x))
	}
	for c := 1; c <= 8; c++ {
		u["star"] = append(u["star"], qf(fmt.Sprintf("star/company-%d", c),
			"SELECT ?l ?p ?d WHERE { ?l ex:manufacturer ex:Company%d ; ex:USBPorts %d ; ex:price ?p ; ex:releaseDate ?d . FILTER(?p < 1500) }", c, c%5+1))
		top := qf(fmt.Sprintf("top/company-%d", c),
			"SELECT ?l ?p WHERE { ?l a ex:Laptop ; ex:manufacturer ex:Company%d ; ex:price ?p } ORDER BY DESC(?p) ?l LIMIT 50", c)
		top.ordered = true
		u["top"] = append(u["top"], top)
		u["optional"] = append(u["optional"], qf(fmt.Sprintf("optional/company-%d", c),
			"SELECT ?l ?h ?hm WHERE { ?l ex:manufacturer ex:Company%d ; ex:price ?p . FILTER(?p > 1900) OPTIONAL { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm } }", c))
	}
	for c := 1; c <= 4; c++ {
		u["year"] = append(u["year"], qf(fmt.Sprintf("year/company-%d", c),
			"SELECT ?y (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ex:Company%d ; ex:releaseDate ?d . BIND(YEAR(?d) AS ?y) } GROUP BY ?y", c))
	}
	// Nine multi-MB selects whose cost falls smoothly with the threshold
	// (≈21k down to ≈9k rows): they are the slowest 15 % of a round, so the
	// p90 lies inside their range and not on the cliff at its edge.
	for x := 600; x <= 1400; x += 100 {
		u["big"] = append(u["big"], qf(fmt.Sprintf("big/price-ge-%d", x),
			"SELECT ?l ?p ?d ?u WHERE { ?l a ex:Laptop ; ex:price ?p ; ex:releaseDate ?d ; ex:USBPorts ?u . FILTER(?p >= %d) }", x))
	}
	return u
})

// sparqlOp renders a query as GET /sparql. uniq, when non-empty, is appended
// as a comment: the answer cache keys on the raw text, so the request misses
// while the answer, and so its golden digest, stays that of the template.
func sparqlOp(t tmpl, uniq string) op {
	text := t.text
	if uniq != "" {
		text += " # " + uniq
	}
	return op{Class: "sparql", Key: t.key, Method: "GET", Path: "/sparql?query=" + url.QueryEscape(text),
		Ordered: t.ordered, query: text}
}

// coldRound is every query of the universe once, shuffled, each under a text
// no earlier request had.
func coldRound(w *workload, seed int64, r int) []op {
	u := universe()
	var ts []tmpl
	for _, fam := range []string{"e5", "avg", "origin", "chain", "maker", "having", "star", "top", "optional", "year", "big"} {
		ts = append(ts, u[fam]...)
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	out := make([]op, len(ts))
	for i, t := range ts {
		out[i] = sparqlOp(t, fmt.Sprintf("s%d r%d i%d", seed, r, i))
	}
	return out
}

// hotSet is the 32 queries of the hot workloads in popularity order: small
// aggregates and ≈50 KB star selects interleaved so that no rank range is
// all of one size.
func hotSet() []tmpl {
	u := universe()
	var out []tmpl
	for i := 0; i < 8; i++ {
		out = append(out, u["star"][i], u["top"][i])
		for _, fam := range []string{"origin", "avg", "e5", "maker", "having"} {
			if i < len(u[fam]) {
				out = append(out, u[fam][i])
			}
		}
	}
	return out[:32]
}

// hotRoundSize is the number of requests in one round of the hot set.
const (
	hotRoundSize      = 4000
	hotRoundSizeQuick = 200
)

// zipfMultiset returns size indices into a set of n items with Zipf(1.1)
// multiplicities, every item at least once (so size must be at least n);
// rounding is settled on the most popular item.
func zipfMultiset(n, size int) []int {
	if size < n {
		panic("zipfMultiset: fewer draws than items")
	}
	weights, sum := make([]float64, n), 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		sum += weights[i]
	}
	mult, total := make([]int, n), 0
	for i, w := range weights {
		mult[i] = max(1, int(w/sum*float64(size)+0.5))
		total += mult[i]
	}
	mult[0] += size - total
	out := make([]int, 0, size)
	for i, m := range mult {
		for k := 0; k < m; k++ {
			out = append(out, i)
		}
	}
	return out
}

// hotOnce is each hot query once, in popularity order: the warm-up that
// fills the cache, and what the hot rounds draw from. Built once: a hot
// round is 4000 requests, and rendering them again every round would be the
// load generator's time, not the server's.
var hotOnce = sync.OnceValue(func() []op {
	var out []op
	for _, t := range hotSet() {
		out = append(out, sparqlOp(t, ""))
	}
	return out
})

func hotRound(w *workload, seed int64, r int) []op {
	size := hotRoundSize
	if w.quick {
		size = hotRoundSizeQuick
	}
	set := hotOnce()
	idx := zipfMultiset(len(set), size)
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([]op, len(idx))
	for i, k := range idx {
		out[i] = set[k]
	}
	return out
}

// ---- mixed read/write ----

// mixedCopies is how often each hot query is read in a round, not counting
// the deliberate repeats.
const (
	mixedCopies      = 4
	mixedCopiesQuick = 1
)

func noteIRI(n int) string { return fmt.Sprintf("<%sbenchItem%d>", ns, n) }

func noteTriples(n int) string {
	return fmt.Sprintf("%s <%sbenchNote> \"note %d\" . %s <%sbenchTag> <%sbenchTag%d> .", noteIRI(n), ns, n, noteIRI(n), ns, ns, n%7)
}

func updateOp(text string, inserted, deleted int) op {
	return op{Class: "update", Method: "POST", Path: "/sparql", Body: text, CType: "application/sparql-update",
		Want: fmt.Sprintf("inserted=%d deleted=%d", inserted, deleted), query: text}
}

// countQuery reads back how many notes are live: its expected answer comes
// from the benchmark's own model of the updates, not from a golden file.
const countQuery = prefix + "SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:benchNote ?o }"

// Read i of a round is the count query when countSlot, and a repeat of the
// read two places earlier when repeatSlot: the only read that can hit the
// answer cache, because an update follows every third read and drops it.
func countSlot(i int) bool { return i%10 == 9 }
func repeatSlot(i int) bool {
	return i%3 == 2 && (i/3)%2 == 1 && !countSlot(i) && !countSlot(i-2)
}

// mixedReads is the length of a round that places draws hot-set reads.
func mixedReads(draws int) int {
	i := 0
	for placed := 0; placed < draws; i++ {
		if !countSlot(i) && !repeatSlot(i) {
			placed++
		}
	}
	return i
}

// mixedRound is hot-set reads with every 4th op an update: two inserts of a
// new two-triple item, then a delete of the older of the two, so the graph
// grows by one item per three updates. The reads never touch the inserted
// predicates, so their golden answers hold whatever the updates did; every
// 10th read is the count query, checked against the model. The hot queries
// are read in a seeded cyclic order, so no query comes twice between two
// updates by chance: the cache hits of a round are its repeat slots (≈10 % of
// the reads), the same number for every seed, and so is the work.
//
// One checkpoint sits in the middle of the round; it is a direct
// Store.Checkpoint call, as the server's background checkpointer makes.
// POST /api/checkpoint would do the same work, but at this scale each call
// exceeds the 250 ms of the per-endpoint latency objective the server creates
// for it, the page alert puts the server into degraded mode, and degraded
// mode serves stale cached answers, which the count query then reports as
// wrong.
func mixedRound(w *workload, seed int64, r int) []op {
	copies := mixedCopies
	if w.quick {
		copies = mixedCopiesQuick
	}
	set := hotOnce()
	reads := mixedReads(copies * len(set))
	updates := reads / 3
	base := r * updates                   // item numbers never repeat across rounds
	live := r * (updates - 2*(updates/3)) // net items per round: inserts minus deletes
	order := rand.New(rand.NewSource(seed*7919 + int64(r))).Perm(len(set))
	var out []op
	placed, first := 0, op{}
	for i := 0; i < reads; i++ {
		var o op
		switch {
		case countSlot(i):
			o = sparqlOp(tmpl{text: countQuery}, "")
			o.Want = "n\nliteral|" + fmt.Sprint(live) + "|" + xsd + "integer|"
		case repeatSlot(i):
			o = first
			o.Repeat = true
		default:
			o = set[order[placed%len(set)]]
			placed++
		}
		if i%3 == 0 {
			first = o
		}
		out = append(out, o)
		if i%3 != 2 {
			continue
		}
		u := i / 3
		if u%3 == 2 && u < updates/3*3 {
			out = append(out, updateOp("DELETE DATA { "+noteTriples(base+u-2)+" }", 0, 2))
			live--
		} else {
			out = append(out, updateOp("INSERT DATA { "+noteTriples(base+u)+" }", 2, 0))
			live++
		}
		if u == updates/2 {
			out = append(out, op{Class: "checkpoint"})
		}
	}
	return out
}

// mixedModel is what the graph must hold after rounds complete rounds: the
// triples added net and the notes that must be readable.
func mixedModel(w *workload, seed int64, rounds int) (netTriples int, liveItems []int) {
	live := map[int]bool{}
	for r := 0; r < rounds; r++ {
		for _, o := range mixedRound(w, seed, r) {
			if o.Class != "update" {
				continue
			}
			var n int
			body := o.Body[strings.Index(o.Body, "benchItem")+len("benchItem"):]
			fmt.Sscanf(body, "%d", &n)
			live[n] = strings.HasPrefix(o.Body, "INSERT")
		}
	}
	for n, ok := range live {
		if ok {
			liveItems = append(liveItems, n)
		}
	}
	return 2 * len(liveItems), liveItems
}
