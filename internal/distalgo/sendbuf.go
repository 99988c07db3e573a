package distalgo

// sendBuffers recycles a node's broadcast messages.  A node fills one
// message per round and sends it through swap, which parks the message in
// one of two slots and returns a pointer to the slot (broadcasting the
// pointer boxes nothing) together with the message of the previous send,
// whose arrays the node refills for its next send.
//
// This is safe because of the simulator's message contract and the way
// every user of sendBuffers reads messages.  A message sent in round t is
// read by its receivers only during their round t+1 steps: they copy what
// they keep out of it and never retain the message itself.  A node sends at
// most one message per round from a given sendBuffers, as the last action
// of its step.  So the round-t message comes back at the node's next send,
// in round t+1 or later, and is refilled no earlier than round t+2, after
// every receiver is done with it.
type sendBuffers[M any] struct {
	slots [2]M
	next  int
}

// swap parks m in the next slot and returns that slot together with the
// message of the previous send (before the first send: the spare).
func (s *sendBuffers[M]) swap(m M) (sent *M, recycled M) {
	sent = &s.slots[s.next]
	*sent = m
	s.next ^= 1
	return sent, s.slots[s.next]
}

// setSpare sets the message the first swap hands back for refilling, so a
// node can start with preallocated arrays in both slots.
func (s *sendBuffers[M]) setSpare(m M) { s.slots[s.next^1] = m }
