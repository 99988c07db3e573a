package graph

// SetEpoch positions w's epoch counter so tests can drive it across the
// uint32 wrap.
func (w *BallWalker) SetEpoch(e uint32) { w.epoch = e }

// Eccentricity returns the maximum distance from v to any vertex of its
// connected component: the plain-BFS oracle for BallWalker.EccentricityWithin.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFSDistancesBounded(v, -1)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
