package distalgo

import "math/bits"

// idSet is an insert-only set of non-negative ids below 2³¹−1: open
// addressing with linear probing over a power-of-two table kept at most
// half full.  Flooding nodes use it to forward every record exactly once;
// a flat int32 table inserts and grows at a fraction of a Go map's cost.
type idSet struct {
	slots []int32 // id+1 per occupied slot, 0 = empty
	shift uint8   // 32 - log2(len(slots))
	n     int
}

// insert adds id and reports whether it was absent.
func (s *idSet) insert(id int) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	key := int32(id + 1)
	mask := len(s.slots) - 1
	for i := s.home(id); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			s.n++
			return true
		case key:
			return false
		}
	}
}

// reserve sizes an empty set to take n ids without growing.
func (s *idSet) reserve(n int) {
	if s.n == 0 && 2*n > len(s.slots) {
		s.slots = make([]int32, 1<<bits.Len(uint(2*n-1)))
		s.shift = uint8(32 - bits.TrailingZeros(uint(len(s.slots))))
	}
}

// home is the Fibonacci hash of id: the top bits of id·⌊2³²/φ⌋, which
// spreads the clustered ids of a ball evenly over the table.
func (s *idSet) home(id int) int { return int(uint32(id) * 0x9E3779B9 >> s.shift) }

func (s *idSet) grow() {
	old := s.slots
	s.n = 0
	s.reserve(max(len(old), 8))
	for _, key := range old {
		if key != 0 {
			s.insert(int(key - 1))
		}
	}
}
