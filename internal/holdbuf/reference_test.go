package holdbuf

// refStream is the per-stream logic the live middlebox used before
// Stream: parallel packet and seq slices, head drop by re-slicing, and a
// fromSeq filter on the flush and on fresh packets. It is kept as the
// reference Stream must match op for op.
type refStream struct {
	depth   int
	buf     []int // packet ids, oldest first
	seqs    []uint32
	active  bool
	fromSeq int64
	sent    int
	dropped int
}

func (r *refStream) offer(seq uint32, p int) (forward bool) {
	if r.active {
		if r.fromSeq < 0 || int64(seq) >= r.fromSeq {
			r.sent++
			return true
		}
		return false
	}
	if len(r.buf) >= r.depth {
		r.buf = r.buf[1:]
		r.seqs = r.seqs[1:]
		r.dropped++
	}
	r.buf = append(r.buf, p)
	r.seqs = append(r.seqs, seq)
	return false
}

func (r *refStream) start(fromSeq int64) (released []int) {
	r.fromSeq = fromSeq
	r.active = true
	bufs, seqs := r.buf, r.seqs
	r.buf, r.seqs = nil, nil
	for i, b := range bufs {
		if r.fromSeq >= 0 && int64(seqs[i]) < r.fromSeq {
			continue
		}
		r.sent++
		released = append(released, b)
	}
	return released
}

func (r *refStream) stop() { r.active = false }
