package core

// BuildIndex exposes dependency i's index build to the external test
// package, whose tests build generated instances (internal/gen imports
// core).
func (m *Monitor) BuildIndex(i int) { m.indexDep(m.sigma[i]) }
