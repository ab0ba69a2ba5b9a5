package core

// i32Arena carves per-recursion-level []int32 scratch (candidate-degree
// counts, edge-degree tallies) from one backing slab, mirroring
// bitset.Arena's mark/release discipline. Unlike a single shared buffer it
// survives recursion: a child level carves its own counts and the parent's
// stay intact behind the mark.
type i32Arena struct {
	slab []int32
	used int
}

func (a *i32Arena) reset()        { a.used = 0 }
func (a *i32Arena) mark() int     { return a.used }
func (a *i32Arena) release(m int) { a.used = m }

// get carves n int32s of unspecified content; the caller must write before
// reading (or use getZeroed).
func (a *i32Arena) get(n int) []int32 {
	if a.used+n > len(a.slab) {
		grow := 2 * len(a.slab)
		if grow < a.used+n {
			grow = a.used + n
		}
		if grow < 1024 {
			grow = 1024
		}
		ns := make([]int32, grow)
		copy(ns, a.slab[:a.used])
		a.slab = ns
	}
	s := a.slab[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// getZeroed carves n zeroed int32s.
func (a *i32Arena) getZeroed(n int) []int32 {
	s := a.get(n)
	clear(s)
	return s
}
