package relation

import "idlog/internal/value"

// Chunk sizing of the in-memory tuple store. Every chunk holds
// chunkTuples tuples except chunk 0, which starts at firstChunk tuples
// and doubles up to chunkTuples, so a relation of a few tuples (a
// small write batch, a one-tuple delta) pins a small array rather than
// a full chunk.
const (
	chunkShift  = 8
	chunkTuples = 1 << chunkShift
	firstChunk  = 16
)

// arena holds the values of a relation's in-memory tuples in
// pointer-free chunks: the tuple at arena index i occupies arity values
// at offset (i mod chunkTuples)·arity of chunk i / chunkTuples. Storing
// a tuple copies its values in, so no tuple is a heap object of its own
// and the garbage collector never scans a chunk. Chunks are allocated at
// their full size and never shrink: n, not the chunks' lengths, says
// how many tuples are live, so a relation that shrinks and regrows
// reuses its chunks.
type arena struct {
	chunks [][]value.Value
	n      int
}

// at returns a view of tuple i, capped at the arity w so an append to
// it copies instead of overwriting the next tuple.
func (a *arena) at(i, w int) value.Tuple {
	o := (i & (chunkTuples - 1)) * w
	return a.chunks[i>>chunkShift][o : o+w : o+w]
}

// presize makes chunk 0 hold min(hint, chunkTuples) tuples of arity w
// and reserves the chunk list for hint tuples.
func (a *arena) presize(hint, w int) {
	if hint <= 0 || a.n > 0 {
		return
	}
	a.chunks = make([][]value.Value, 1, (hint+chunkTuples-1)/chunkTuples)
	a.chunks[0] = make([]value.Value, min(hint, chunkTuples)*w)
}

// push copies t (of arity w) in as tuple n and returns its view.
func (a *arena) push(t value.Tuple, w int) value.Tuple {
	i := a.n
	c := i >> chunkShift
	switch {
	case c == len(a.chunks):
		size := chunkTuples
		if c == 0 {
			size = firstChunk
		}
		a.chunks = append(a.chunks, make([]value.Value, size*w))
	case c == 0 && (i+1)*w > len(a.chunks[0]):
		grown := make([]value.Value, min(2*i, chunkTuples)*w)
		copy(grown, a.chunks[0])
		a.chunks[0] = grown
	}
	a.n++
	v := a.at(i, w)
	copy(v, t)
	return v
}

// clone returns a copy of a's live tuples that shares no chunk with it.
func (a *arena) clone(w int) arena {
	c := arena{chunks: make([][]value.Value, (a.n+chunkTuples-1)>>chunkShift), n: a.n}
	for k := range c.chunks {
		ch := a.chunks[k]
		c.chunks[k] = make([]value.Value, len(ch))
		copy(c.chunks[k], ch[:min(a.n-k*chunkTuples, chunkTuples)*w])
	}
	return c
}
