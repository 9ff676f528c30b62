// Package core implements the paper's primary contribution: Ontology
// Functional Dependencies (OFDs). It provides the OFD type and dependency
// sets Σ, the sound and complete axiom system (Identity, Decomposition,
// Composition) with the linear-time closure/inference procedure
// (Algorithm 1), minimal covers, and verification of synonym OFDs over
// equivalence classes — both exact and approximate (minimum support κ).
package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/fastofd/fastofd/internal/relation"
)

// OFD is a normalized Ontology Functional Dependency X →_syn A with a
// single consequent attribute (normalization is justified by the
// Decomposition and Composition axioms).
type OFD struct {
	LHS relation.AttrSet // antecedent attribute set X
	RHS int              // consequent attribute A
}

// Trivial reports whether the dependency is trivial (A ∈ X, Reflexivity).
func (o OFD) Trivial() bool { return o.LHS.Has(o.RHS) }

// Format renders the OFD with schema attribute names.
func (o OFD) Format(s *relation.Schema) string {
	return fmt.Sprintf("%s -> %s", o.LHS.Format(s), s.Name(o.RHS))
}

// String renders the OFD with attribute positions.
func (o OFD) String() string {
	return fmt.Sprintf("%s -> %d", o.LHS.String(), o.RHS)
}

// Set is a set of OFDs Σ. Order is not semantically meaningful; Sort gives
// a canonical order for output and comparison.
type Set []OFD

// Sort orders the set by consequent, then antecedent cardinality, then
// antecedent bits.
func (s Set) Sort() {
	sort.Slice(s, func(i, j int) bool {
		if s[i].RHS != s[j].RHS {
			return s[i].RHS < s[j].RHS
		}
		if li, lj := s[i].LHS.Len(), s[j].LHS.Len(); li != lj {
			return li < lj
		}
		return s[i].LHS < s[j].LHS
	})
}

// Contains reports whether the exact dependency is in the set.
func (s Set) Contains(o OFD) bool {
	for _, d := range s {
		if d == o {
			return true
		}
	}
	return false
}

// Clone returns a copy of the set.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Format renders the set one dependency per line using schema names.
func (s Set) Format(sch *relation.Schema) string {
	var b strings.Builder
	for i, d := range s {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Format(sch))
	}
	return b.String()
}

// ByRHS groups the set by consequent attribute.
func (s Set) ByRHS() map[int]Set {
	out := make(map[int]Set)
	for _, d := range s {
		out[d.RHS] = append(out[d.RHS], d)
	}
	return out
}

// ConsequentAttrs returns the distinct consequent attributes (the paper's
// Z, used in the repair approximation bound P = 2·min{|Z|, |Σ|}).
func (s Set) ConsequentAttrs() []int {
	seen := make(map[int]struct{})
	var out []int
	for _, d := range s {
		if _, ok := seen[d.RHS]; ok {
			continue
		}
		seen[d.RHS] = struct{}{}
		out = append(out, d.RHS)
	}
	sort.Ints(out)
	return out
}

// Parse parses an OFD from "A,B -> C" or the Format output "[A, B] -> C"
// using schema attribute names. An empty antecedent ("-> C" or "[] -> C")
// yields the empty set.
func Parse(sch *relation.Schema, s string) (OFD, error) {
	parts := strings.Split(s, "->")
	if len(parts) != 2 {
		return OFD{}, fmt.Errorf("core: OFD %q must have exactly one \"->\"", s)
	}
	lhsSpec := strings.TrimSpace(parts[0])
	if strings.HasPrefix(lhsSpec, "[") && strings.HasSuffix(lhsSpec, "]") {
		lhsSpec = lhsSpec[1 : len(lhsSpec)-1]
	}
	var lhs relation.AttrSet
	for _, name := range strings.Split(lhsSpec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i, ok := sch.Index(name)
		if !ok {
			return OFD{}, fmt.Errorf("core: unknown attribute %q", name)
		}
		lhs = lhs.With(i)
	}
	rhsName := strings.TrimSpace(parts[1])
	rhs, ok := sch.Index(rhsName)
	if !ok {
		return OFD{}, fmt.Errorf("core: unknown attribute %q", rhsName)
	}
	return OFD{LHS: lhs, RHS: rhs}, nil
}

// MustParse is Parse that panics on error.
func MustParse(sch *relation.Schema, s string) OFD {
	o, err := Parse(sch, s)
	if err != nil {
		panic(err)
	}
	return o
}

// ParseSet parses one dependency per element.
func ParseSet(sch *relation.Schema, specs []string) (Set, error) {
	out := make(Set, 0, len(specs))
	for _, s := range specs {
		o, err := Parse(sch, s)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
