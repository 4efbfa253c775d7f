package fpga

// withDepth rebuilds e's submission ring at depth entries, the pull-queue
// depth a drain also caps at (queueDepth otherwise). Call it on a fresh
// engine, before any request is submitted.
func (e *Engine) withDepth(depth int) *Engine {
	e.depth = depth
	e.port.Store(newPort(depth))
	return e
}
