package core

// BuildIndex exposes the class-table build of dependency i's antecedent
// with its member lists (the build Register runs for an antecedent no
// engine holds a table for) to the external test package, whose tests
// build generated instances (internal/gen imports core).
func (m *Monitor) BuildIndex(i int) { m.sub.buildTable(m.sigma[i].LHS).BuildMembers() }
