package exec

// Materialized reports whether n ran to a finished result through Run
// under c — a breaker, a pipeline drained whole, or a shared subtree —
// rather than only as a stage of a pipeline above it.
func Materialized(c *Ctx, n Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.nodes[n]
	return st != nil && st.runs > 0
}
