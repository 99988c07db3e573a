package graph

// IntQueue is a simple FIFO queue of ints backed by a growable ring buffer.
// It is used by the breadth-first searches throughout the library to avoid
// per-search allocations when reused via Reset.
type IntQueue struct {
	buf        []int
	head, tail int
	size       int
}

// NewIntQueue returns a queue with the given initial capacity (minimum 4).
func NewIntQueue(capacity int) *IntQueue {
	if capacity < 4 {
		capacity = 4
	}
	return &IntQueue{buf: make([]int, capacity)}
}

// Empty reports whether the queue has no elements.
func (q *IntQueue) Empty() bool { return q.size == 0 }

// Reset empties the queue without releasing its buffer.
func (q *IntQueue) Reset() { q.head, q.tail, q.size = 0, 0, 0 }

// Push appends x at the back of the queue.
func (q *IntQueue) Push(x int) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = x
	q.tail = (q.tail + 1) % len(q.buf)
	q.size++
}

// Pop removes and returns the element at the front of the queue.
// It panics if the queue is empty.
func (q *IntQueue) Pop() int {
	if q.size == 0 {
		panic("graph: Pop from empty IntQueue")
	}
	x := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return x
}

func (q *IntQueue) grow() {
	nb := make([]int, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
	q.tail = q.size
}
