// Monitor: incremental OFD verification under streaming updates — the
// paper's motivating scenario where data evolves (new prescriptions,
// monthly drug approvals) and consistency must be tracked without
// re-verifying the whole instance.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/fastofd/fastofd"
)

func main() {
	schema := fastofd.MustSchema("CC", "CTRY", "SYMP", "DIAG", "MED")
	rel, err := fastofd.FromRows(schema, [][]string{
		{"US", "USA", "headache", "hypertension", "cartia"},
		{"US", "USA", "headache", "hypertension", "cartia"},
		{"US", "America", "headache", "hypertension", "tiazac"},
		{"IN", "India", "nausea", "migrane", "tylenol"},
		{"IN", "Bharat", "nausea", "migrane", "acetaminophen"},
	})
	if err != nil {
		log.Fatal(err)
	}
	ont := fastofd.NewOntology()
	ont.MustAddClass("United States of America", "GEO", fastofd.NoClass, "US", "USA", "America")
	ont.MustAddClass("India", "GEO", fastofd.NoClass, "IN", "Bharat")
	ont.MustAddClass("diltiazem", "FDA", fastofd.NoClass, "cartia", "tiazac")
	ont.MustAddClass("analgesic", "FDA", fastofd.NoClass, "tylenol", "acetaminophen")

	sigma, err := fastofd.ParseOFDs(schema, []string{"CC -> CTRY", "SYMP,DIAG -> MED"})
	if err != nil {
		log.Fatal(err)
	}
	m, err := fastofd.NewMonitor(context.Background(), rel, ont, sigma, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initially satisfied: %v\n", m.Satisfied())

	// A stream of updates: prescriptions change, some introduce
	// inconsistencies, later updates fix them.
	med := schema.MustIndex("MED")
	ctry := schema.MustIndex("CTRY")
	updates := []struct {
		row, col int
		val      string
		note     string
	}{
		{0, med, "tiazac", "same drug family — stays consistent"},
		{1, med, "morphine", "unknown drug — breaks [SYMP,DIAG]->MED"},
		{4, ctry, "Hindustan", "unlisted country name — breaks CC->CTRY"},
		{1, med, "cartia", "prescription corrected"},
		{4, ctry, "India", "country name normalized"},
	}
	for _, u := range updates {
		if _, err := m.Update(u.row, u.col, u.val); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t%d[%s] := %-12q  %-45s violations: %d\n",
			u.row+1, schema.Name(u.col), u.val, u.note, m.ViolationCount())
	}

	// New tuples join their equivalence classes through the LHS-key index —
	// no partition rebuild.
	if _, err := m.AppendRow([]string{"US", "America", "headache", "hypertension", "cartia"}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appended a consistent prescription     violations: %d\n", m.ViolationCount())

	// A monthly batch: dirty classes are deduped and re-verified once, in
	// parallel, with a deterministic merge.
	batch := []fastofd.CellUpdate{
		{Row: 0, Col: med, Value: "cartia"},  // same drug family again
		{Row: 2, Col: med, Value: "cartia"},  // normalize the synonym
		{Row: 3, Col: med, Value: "tylenol"}, // no-op: already tylenol
	}
	if err := m.ApplyBatch(batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied a 3-update batch               violations: %d\n", m.ViolationCount())
	fmt.Printf("finally satisfied: %v\n", m.Satisfied())
}
