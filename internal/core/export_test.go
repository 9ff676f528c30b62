package core

// BuildIndex exposes the class-table build of dependency i's antecedent
// (the build Register runs for an antecedent the monitor does not index
// yet) to the external test package, whose tests build generated
// instances (internal/gen imports core).
func (m *Monitor) BuildIndex(i int) { m.newTable(m.sigma[i].LHS) }
