// OLAP walkthrough: the Chapter 7 correspondence — the interaction model's
// actions realize roll-up, drill-down, slice, dice and pivot over an
// invoices cube (Fig 7.1–7.2).
//
//	go run ./examples/olap
package main

import (
	"fmt"
	"log"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

func main() {
	g := datagen.Invoices(datagen.InvoicesConfig{
		Invoices: 400, Branches: 4, Products: 12, Brands: 3, Seed: 9,
	})
	rdf.Materialize(g)
	ns := datagen.InvoicesNS
	ie := func(l string) rdf.Term { return rdf.NewIRI(ns + l) }
	s := core.NewSession(g, ns)
	s.ClickClass(ie("Invoice"))

	// Build the base cube: SUM(quantity) by (branch, brand).
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: ie("delivers")}, {P: ie("brand")}}})
	s.ClickAggregate(core.MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}},
		hifun.Operation{Op: hifun.OpSum})
	cube := must(s.RunAnalytics())
	fmt.Println("== cube: SUM(quantity) by (branch, brand) ==")
	fmt.Print(cube.String())

	// Pivot (cross-tabulate).
	pt, err := core.Pivot(cube, false, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== pivot ==")
	fmt.Print(pt.String())

	// Roll-up: drop the brand dimension.
	rolled := must(s.RollUp(1))
	fmt.Println("\n== roll-up to (branch) ==")
	fmt.Print(rolled.String())

	// Drill-down: add the month dimension (a derived attribute).
	fine := must(s.DrillDown(core.GroupSpec{Path: facet.Path{{P: ie("hasDate")}}, Derive: "MONTH"}))
	fmt.Printf("\n== drill-down to (branch, month): %d cells ==\n", len(fine.Rows))
	for i, row := range fine.Rows {
		if i >= 6 {
			fmt.Printf("   … %d more rows\n", len(fine.Rows)-i)
			break
		}
		fmt.Printf("   %-10s m%-3s %s\n", row[0].LocalName(), row[1].Value, row[2].Value)
	}

	// Slice: fix branch1, analyze months within it.
	sliced := must(s.Slice(facet.Path{{P: ie("takesPlaceAt")}}, ie("branch1")))
	fmt.Printf("\n== slice branch=branch1: %d cells ==\n", len(sliced.Rows))

	// Dice: restrict to two branches (back at the base dataset first).
	s.Reset()
	s.ClickClass(ie("Invoice"))
	s.ClickGroupBy(core.GroupSpec{Path: facet.Path{{P: ie("takesPlaceAt")}}})
	s.ClickAggregate(core.MeasureSpec{Path: facet.Path{{P: ie("inQuantity")}}},
		hifun.Operation{Op: hifun.OpSum})
	diced := must(s.Dice(facet.Path{{P: ie("takesPlaceAt")}},
		[]rdf.Term{ie("branch1"), ie("branch2")}))
	fmt.Println("\n== dice branches {1,2} ==")
	fmt.Print(diced.String())
}

func must(a *hifun.Answer, err error) *hifun.Answer {
	if err != nil {
		log.Fatal(err)
	}
	return a
}
