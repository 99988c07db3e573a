package graph

import "math/bits"

// Bitset is a fixed-size bit vector used as a compact vertex set.
// The zero value of the struct is not usable; create one with NewBitset.
type Bitset struct {
	words []uint64
}

// NewBitset returns a bitset capable of holding values 0..n-1, all unset.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Members returns the indices of all set bits in increasing order.
func (b *Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			out = append(out, wi*64+i)
			w &= w - 1
		}
	}
	return out
}
