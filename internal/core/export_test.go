package core

import "github.com/fastofd/fastofd/internal/live"

// BuildIndex exposes the class-table build of dependency i's antecedent
// with its member lists (the build Register runs for an antecedent no
// engine holds a table for) to the external test package, whose tests
// build generated instances (internal/gen imports core).
func (m *Monitor) BuildIndex(i int) {
	x := m.sigma[i].LHS
	live.FromPartition(m.rel, x.Attrs(), m.sub.Cache().Get(x)).BuildMembers()
}
