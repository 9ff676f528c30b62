package core

// RouteIndex exposes routeIndex to the external test package, whose
// tests build generated instances (internal/gen imports core).
func (m *Monitor) RouteIndex(i int) { m.routeIndex(i) }
