package pkt

// Ring is a growable FIFO ring buffer. It backs the packet queues on the
// simulation hot path (AP PSM/hardware queues, wire in-flight windows),
// where an append/reslice queue would reallocate on every eviction cycle;
// a Ring reaches a steady state and then allocates nothing.
//
// The zero Ring is an empty, ready-to-use queue.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v to the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("pkt: Pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // don't pin popped values
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Peek returns the head element without removing it. It panics on an empty
// ring.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("pkt: Peek on empty ring")
	}
	return r.buf[r.head]
}

// At returns the i-th element from the head (0 = oldest). It panics when i
// is out of range.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("pkt: ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Reset empties the ring and keeps its storage for reuse, zeroing every
// element so a recycled ring pins nothing it held.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

func (r *Ring[T]) grow() {
	next := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = next
	r.head = 0
}
