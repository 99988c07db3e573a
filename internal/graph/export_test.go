package graph

// SetEpoch positions w's epoch counter so tests can drive it across the
// uint32 wrap.
func (w *BallWalker) SetEpoch(e uint32) { w.epoch = e }
