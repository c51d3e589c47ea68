package mpi

import (
	"fmt"
)

// Collective tags live in a reserved space above user tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1<<20 + 1
	tagReduce  = 1<<20 + 2
	tagGather  = 1<<20 + 3
	tagScatter = 1<<20 + 4
)

// The collectives are built from two group primitives — a binomial broadcast
// and a binomial reduce over an arbitrary member list — plus a dissemination
// barrier. Linear and Tree run them over the whole world; Hier composes them
// per segment (intra-segment binomial, then a cross-segment exchange between
// one leader per segment), so inter-segment crossings scale with the number
// of segments, not with P.
//
// Tag discipline: every phase of a collective reuses that collective's
// single tag. This is safe because delivery is FIFO per (src, dst, tag) and
// each rank issues its sends/receives in program order, so the k-th message
// a rank sends its partner is always the k-th one the partner consumes.

// leadersFor returns one leader rank per segment group: the root's group is
// led by the root itself so data never takes an extra intra-segment hop, and
// every other group is led by its first member. leaders[i] belongs to
// groups[i].
func (h *hierPlan) leadersFor(root int) []int {
	leaders := make([]int, len(h.groups))
	for i, g := range h.groups {
		leaders[i] = g[0]
	}
	leaders[h.groupOf[root]] = root
	return leaders
}

// --- group primitives -------------------------------------------------------

// bcastBytesGroup runs a binomial broadcast over the member list g, rooted at
// position lpos; pos is the calling rank's own position in g. The source
// passes its payload in data; every other member receives it (and may
// forward it on). The returned message carries the payload — on the source
// it is just {data: data}, on receivers it owns a pool lease the caller must
// release.
func (c *Comm) bcastBytesGroup(g []int, lpos, pos, tag int, data []byte) (message, error) {
	n := len(g)
	m := message{data: data}
	if n <= 1 {
		return m, nil
	}
	vp := (pos - lpos + n) % n // virtual position: source at 0
	if vp != 0 {
		parent := (vp&(vp-1) + lpos) % n
		var err error
		m, err = c.recvMsg(g[parent], tag)
		if err != nil {
			return message{}, err
		}
	}
	for bit := 1; bit < n; bit <<= 1 {
		if vp&bit != 0 {
			break // bits below our lowest set bit were our parent's job
		}
		if child := vp | bit; child < n {
			if err := c.Send(g[(child+lpos)%n], tag, m.data); err != nil {
				m.release()
				return message{}, err
			}
		}
	}
	return m, nil
}

// reduceVecGroup folds the members' vectors into the member at position lpos
// with op, binomially: children fold into parents over log2(n) rounds. All
// members pass equal-length v; v is used as the accumulator in place (so
// non-root contents are clobbered). *tmp is the caller's fold scratch of
// the same length, made on the first receive so leaves never allocate it.
func (c *Comm) reduceVecGroup(g []int, lpos, pos int, op Op, v []float64, tmp *[]float64) error {
	n := len(g)
	if n <= 1 {
		return nil
	}
	vp := (pos - lpos + n) % n
	for bit := 1; bit < n; bit <<= 1 {
		if vp&bit != 0 {
			parent := (vp&^bit + lpos) % n
			return c.SendFloats(g[parent], tagReduce, v)
		}
		if child := vp | bit; child < n {
			if *tmp == nil {
				*tmp = make([]float64, len(v))
			}
			if err := c.recvFloatsInto(g[(child+lpos)%n], tagReduce, *tmp); err != nil {
				return err
			}
			reduceInto(op, v, *tmp)
		}
	}
	return nil
}

// barrierGroup is a dissemination barrier over the member list g: in round
// k every member signals the member 2^k positions ahead and waits for the
// one 2^k behind, so after ceil(log2 n) rounds everyone has (transitively)
// heard from everyone and the virtual clocks converge to the group maximum.
func (c *Comm) barrierGroup(g []int, pos int) error {
	n := len(g)
	for dist := 1; dist < n; dist <<= 1 {
		if err := c.Send(g[(pos+dist)%n], tagBarrier, nil); err != nil {
			return err
		}
		if _, err := c.Recv(g[((pos-dist)%n+n)%n], tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// reduceInto accumulates src into dst element-wise. The operator switch sits
// outside the loop so each Op gets a tight, vectorizable inner loop instead
// of a per-element dispatch.
func reduceInto(op Op, dst, src []float64) {
	dst = dst[:len(src)] // one bounds check, then BCE inside the loops
	switch op {
	case OpSum:
		for i, s := range src {
			dst[i] += s
		}
	case OpProd:
		for i, s := range src {
			dst[i] *= s
		}
	case OpMax:
		for i, s := range src {
			if s > dst[i] {
				dst[i] = s
			}
		}
	case OpMin:
		for i, s := range src {
			if s < dst[i] {
				dst[i] = s
			}
		}
	}
}

// --- barrier ----------------------------------------------------------------

// Barrier blocks until every rank has entered it. All ranks must call it.
// Linear reports in to rank 0 and waits for its release; Tree uses a
// dissemination barrier over all ranks; Hier fans in to the segment leaders,
// disseminates among the leaders only, and fans back out.
func (c *Comm) Barrier() error {
	w := c.world
	if w.size == 1 {
		return nil
	}
	switch w.algo {
	case Tree:
		return c.barrierGroup(w.allRanks, c.rank)
	case Hier:
		return c.barrierHier()
	default:
		return c.barrierLinear()
	}
}

func (c *Comm) barrierLinear() error {
	// Everyone reports in, rank 0 replies. Virtual time converges to the
	// slowest participant.
	if c.rank == 0 {
		for r := 1; r < c.world.size; r++ {
			if _, err := c.Recv(r, tagBarrier); err != nil {
				return err
			}
		}
		for r := 1; r < c.world.size; r++ {
			if err := c.Send(r, tagBarrier, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tagBarrier, nil); err != nil {
		return err
	}
	_, err := c.Recv(0, tagBarrier)
	return err
}

func (c *Comm) barrierHier() error {
	h := c.world.hier
	gi := h.groupOf[c.rank]
	g := h.groups[gi]
	leader := g[0]
	if c.rank != leader {
		if err := c.Send(leader, tagBarrier, nil); err != nil {
			return err
		}
		_, err := c.Recv(leader, tagBarrier)
		return err
	}
	for _, r := range g[1:] {
		if _, err := c.Recv(r, tagBarrier); err != nil {
			return err
		}
	}
	if len(h.groups) > 1 {
		leaders := make([]int, len(h.groups))
		for i, grp := range h.groups {
			leaders[i] = grp[0]
		}
		if err := c.barrierGroup(leaders, gi); err != nil {
			return err
		}
	}
	for _, r := range g[1:] {
		if err := c.Send(r, tagBarrier, nil); err != nil {
			return err
		}
	}
	return nil
}

// --- broadcast --------------------------------------------------------------

// bcastBytes is the byte-plane broadcast all Bcast flavours share. The
// returned message carries the payload — root's own buf at the root, a pool
// lease elsewhere that the caller must release.
func (c *Comm) bcastBytes(root int, buf []byte) (message, error) {
	w := c.world
	if w.size == 1 {
		return message{data: buf}, nil
	}
	switch w.algo {
	case Tree:
		return c.bcastBytesGroup(w.allRanks, root, c.rank, tagBcast, buf)
	case Hier:
		return c.bcastBytesHier(root, buf)
	default:
		if c.rank == root {
			for r := 0; r < w.size; r++ {
				if r == root {
					continue
				}
				if err := c.Send(r, tagBcast, buf); err != nil {
					return message{}, err
				}
			}
			return message{data: buf}, nil
		}
		return c.recvMsg(root, tagBcast)
	}
}

// bcastBytesHier crosses segments between leaders first, then broadcasts
// binomially inside each segment.
func (c *Comm) bcastBytesHier(root int, buf []byte) (message, error) {
	h := c.world.hier
	gi := h.groupOf[c.rank]
	rg := h.groupOf[root]
	leaders := h.leadersFor(root)
	m := message{data: buf} // meaningful only at root until a phase fills it
	if leaders[gi] == c.rank && len(leaders) > 1 {
		var err error
		m, err = c.bcastBytesGroup(leaders, rg, gi, tagBcast, buf)
		if err != nil {
			return message{}, err
		}
	}
	g := h.groups[gi]
	if len(g) > 1 {
		lpos := 0
		if gi == rg {
			lpos = h.posInGroup[root]
		}
		m2, err := c.bcastBytesGroup(g, lpos, h.posInGroup[c.rank], tagBcast, m.data)
		if err != nil {
			m.release()
			return message{}, err
		}
		if leaders[gi] != c.rank {
			m = m2 // members: the intra-phase lease is the payload
		}
		// Leaders keep m: for them m2 is just {data: m.data}, no new lease.
	}
	return m, nil
}

// Bcast distributes root's buffer to every rank; all ranks call it and
// receive the payload as the return value (root gets its own buf back,
// other ranks a freshly allocated copy they own).
func (c *Comm) Bcast(root int, buf []byte) ([]byte, error) {
	return c.BcastInto(root, buf, nil)
}

// BcastInto is Bcast without the allocation at non-root ranks: the payload
// is appended to dst[:0], reusing dst's backing array when its capacity
// suffices, and the resulting slice is returned. The root gets buf back.
func (c *Comm) BcastInto(root int, buf, dst []byte) ([]byte, error) {
	w := c.world
	if root < 0 || root >= w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	m, err := c.bcastBytes(root, buf)
	if err != nil {
		return nil, err
	}
	if m.pooled == nil {
		return m.data, nil
	}
	out := append(dst[:0], m.data...)
	m.release()
	return out, nil
}

// BcastFloats distributes root's vector to every rank. The root returns v
// unchanged; other ranks return the received vector, reusing v's backing
// array when its capacity suffices (so callers can pass a scratch buffer and
// avoid the allocation).
func (c *Comm) BcastFloats(root int, v []float64) ([]float64, error) {
	w := c.world
	if root < 0 || root >= w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	var pb *payloadBuf
	var data []byte
	if c.rank == root && len(v) > 0 {
		pb = leaseBuf(8 * len(v))
		encodeFloatsInto(pb.b, v)
		data = pb.b
	}
	m, err := c.bcastBytes(root, data)
	if pb != nil {
		payloadPool.Put(pb)
	}
	if err != nil {
		return nil, err
	}
	if c.rank == root {
		return v, nil
	}
	if len(m.data)%8 != 0 {
		n := len(m.data)
		m.release()
		return nil, fmt.Errorf("mpi: bcast frame length %d not a multiple of 8", n)
	}
	out := growFloats(v, len(m.data)/8)
	decodeFloatsInto(out, m.data)
	m.release()
	return out, nil
}

// bcastVecInPlace broadcasts root's v into every rank's v, requiring the
// exact same length everywhere (the AllReduce internal path, where lengths
// are known a priori).
func (c *Comm) bcastVecInPlace(root int, v []float64) error {
	w := c.world
	if w.size == 1 {
		return nil
	}
	var pb *payloadBuf
	var data []byte
	if c.rank == root && len(v) > 0 {
		pb = leaseBuf(8 * len(v))
		encodeFloatsInto(pb.b, v)
		data = pb.b
	}
	m, err := c.bcastBytes(root, data)
	if pb != nil {
		payloadPool.Put(pb)
	}
	if err != nil {
		return err
	}
	if c.rank != root {
		if len(m.data) != 8*len(v) {
			n := len(m.data)
			m.release()
			return fmt.Errorf("mpi: bcast frame is %d bytes, want %d", n, 8*len(v))
		}
		decodeFloatsInto(v, m.data)
		m.release()
	}
	return nil
}

// --- reduce -----------------------------------------------------------------

// reduceVec folds every rank's v into the root's v with op; on other ranks v
// is clobbered (it serves as the fold accumulator).
func (c *Comm) reduceVec(root int, op Op, v []float64) error {
	w := c.world
	if w.size == 1 {
		return nil
	}
	var tmp []float64 // fold scratch, made only by ranks that receive
	switch w.algo {
	case Tree:
		return c.reduceVecGroup(w.allRanks, root, c.rank, op, v, &tmp)
	case Hier:
		h := w.hier
		gi := h.groupOf[c.rank]
		rg := h.groupOf[root]
		leaders := h.leadersFor(root)
		g := h.groups[gi]
		if len(g) > 1 {
			lpos := 0
			if gi == rg {
				lpos = h.posInGroup[root]
			}
			if err := c.reduceVecGroup(g, lpos, h.posInGroup[c.rank], op, v, &tmp); err != nil {
				return err
			}
		}
		if leaders[gi] == c.rank && len(leaders) > 1 {
			return c.reduceVecGroup(leaders, rg, gi, op, v, &tmp)
		}
		return nil
	default:
		if c.rank != root {
			return c.SendFloats(root, tagReduce, v)
		}
		tmp = make([]float64, len(v))
		for r := 0; r < w.size; r++ {
			if r == root {
				continue
			}
			if err := c.recvFloatsInto(r, tagReduce, tmp); err != nil {
				return err
			}
			reduceInto(op, v, tmp)
		}
		return nil
	}
}

// ReduceFloats combines every rank's vector element-wise with op; all ranks
// pass equal-length v. The root's v holds the result and is returned; on
// other ranks the call returns nil and v's contents are undefined afterwards
// (it is used as scratch, like MPI_IN_PLACE).
func (c *Comm) ReduceFloats(root int, op Op, v []float64) ([]float64, error) {
	w := c.world
	if root < 0 || root >= w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	if err := c.reduceVec(root, op, v); err != nil {
		return nil, err
	}
	if c.rank == root {
		return v, nil
	}
	return nil, nil
}

// Reduce combines every rank's value with op; the result is returned at
// root (other ranks get 0). All ranks call it.
func (c *Comm) Reduce(root int, op Op, value float64) (float64, error) {
	var a [1]float64
	a[0] = value
	out, err := c.ReduceFloats(root, op, a[:])
	if err != nil {
		return 0, err
	}
	if c.rank == root {
		return out[0], nil
	}
	return 0, nil
}

// AllReduceFloats combines every rank's vector element-wise with op and
// leaves the result in v on every rank (reduce to rank 0, then broadcast).
// All ranks pass equal-length v; v is modified in place and returned.
func (c *Comm) AllReduceFloats(op Op, v []float64) ([]float64, error) {
	if err := c.reduceVec(0, op, v); err != nil {
		return nil, err
	}
	if err := c.bcastVecInPlace(0, v); err != nil {
		return nil, err
	}
	return v, nil
}

// AllReduce combines every rank's value with op; every rank receives the
// combined value.
func (c *Comm) AllReduce(op Op, value float64) (float64, error) {
	var a [1]float64
	a[0] = value
	if _, err := c.AllReduceFloats(op, a[:]); err != nil {
		return 0, err
	}
	return a[0], nil
}

// --- gather -----------------------------------------------------------------

// GatherFloats collects each rank's vector at root, concatenated in rank
// order; all ranks must pass the same length (a mismatched frame is an
// error). The root returns the size·len(v) result; other ranks return nil.
func (c *Comm) GatherFloats(root int, v []float64) ([]float64, error) {
	w := c.world
	if root < 0 || root >= w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	k := len(v)
	if w.size == 1 {
		out := make([]float64, k)
		copy(out, v)
		return out, nil
	}
	switch w.algo {
	case Tree:
		return c.gatherTree(root, v)
	case Hier:
		return c.gatherHier(root, v)
	default:
		if c.rank != root {
			return nil, c.SendFloats(root, tagGather, v)
		}
		out := make([]float64, w.size*k)
		copy(out[root*k:], v)
		for r := 0; r < w.size; r++ {
			if r == root {
				continue
			}
			if err := c.recvFloatsInto(r, tagGather, out[r*k:(r+1)*k]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// subtreeSpan returns the number of virtual ranks in the binomial subtree
// rooted at vr in a world of the given size (1 for leaves).
func subtreeSpan(vr, size int) int {
	span := 1
	for bit := 1; bit < size; bit <<= 1 {
		if vr&bit != 0 {
			break
		}
		if child := vr + bit; child < size {
			m := size - child
			if m > bit {
				m = bit
			}
			span = bit + m
		}
	}
	return span
}

// gatherTree gathers binomially: each rank accumulates the contiguous block
// of virtual ranks in its subtree and forwards one combined frame to its
// parent, so the root receives log2(P) frames instead of P-1.
func (c *Comm) gatherTree(root int, v []float64) ([]float64, error) {
	w := c.world
	k := len(v)
	vr := (c.rank - root + w.size) % w.size
	unvr := func(p int) int { return (p + root) % w.size }
	span := subtreeSpan(vr, w.size)
	buf := make([]float64, span*k)
	copy(buf, v)
	for bit := 1; bit < w.size; bit <<= 1 {
		if vr&bit != 0 {
			return nil, c.SendFloats(unvr(vr&^bit), tagGather, buf)
		}
		if child := vr | bit; child < w.size {
			m := subtreeSpan(child, w.size)
			if err := c.recvFloatsInto(unvr(child), tagGather, buf[bit*k:(bit+m)*k]); err != nil {
				return nil, err
			}
		}
	}
	// vr == 0: buf holds all blocks in virtual order; undo the rotation.
	if root == 0 {
		return buf, nil
	}
	out := make([]float64, w.size*k)
	for j := 0; j < w.size; j++ {
		copy(out[unvr(j)*k:], buf[j*k:(j+1)*k])
	}
	return out, nil
}

// gatherHier funnels each segment through its leader: members send one frame
// intra-segment, each leader ships a single combined block across segments.
func (c *Comm) gatherHier(root int, v []float64) ([]float64, error) {
	w := c.world
	h := w.hier
	k := len(v)
	gi := h.groupOf[c.rank]
	rg := h.groupOf[root]
	leaders := h.leadersFor(root)
	leader := leaders[gi]
	switch {
	case c.rank == root:
		out := make([]float64, w.size*k)
		copy(out[root*k:], v)
		for _, r := range h.groups[rg] {
			if r == root {
				continue
			}
			if err := c.recvFloatsInto(r, tagGather, out[r*k:(r+1)*k]); err != nil {
				return nil, err
			}
		}
		for li, l := range leaders {
			if li == rg {
				continue
			}
			g := h.groups[li]
			blk := make([]float64, len(g)*k)
			if err := c.recvFloatsInto(l, tagGather, blk); err != nil {
				return nil, err
			}
			for pos, r := range g {
				copy(out[r*k:], blk[pos*k:(pos+1)*k])
			}
		}
		return out, nil
	case c.rank == leader: // leader of a non-root segment
		g := h.groups[gi]
		blk := make([]float64, len(g)*k)
		copy(blk[h.posInGroup[c.rank]*k:], v)
		for _, r := range g {
			if r == c.rank {
				continue
			}
			pos := h.posInGroup[r]
			if err := c.recvFloatsInto(r, tagGather, blk[pos*k:(pos+1)*k]); err != nil {
				return nil, err
			}
		}
		return nil, c.SendFloats(root, tagGather, blk)
	default:
		return nil, c.SendFloats(leader, tagGather, v)
	}
}

// Gather collects each rank's value at root, indexed by rank; non-roots
// return nil. All ranks call it.
func (c *Comm) Gather(root int, value float64) ([]float64, error) {
	var a [1]float64
	a[0] = value
	return c.GatherFloats(root, a[:])
}

// --- scatter ----------------------------------------------------------------

// ScatterFloats splits root's values into size equal chunks and delivers
// chunk i to rank i; every rank returns its own chunk. At root, len(values)
// must be a positive multiple of Size; other ranks may pass nil.
func (c *Comm) ScatterFloats(root int, values []float64) ([]float64, error) {
	w := c.world
	if root < 0 || root >= w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	if c.rank == root {
		if len(values) == 0 || len(values)%w.size != 0 {
			return nil, fmt.Errorf("mpi: scatter needs a positive multiple of %d values, got %d", w.size, len(values))
		}
	}
	if w.size == 1 {
		out := make([]float64, len(values))
		copy(out, values)
		return out, nil
	}
	switch w.algo {
	case Tree:
		return c.scatterTree(root, values)
	case Hier:
		return c.scatterHier(root, values)
	default:
		if c.rank == root {
			k := len(values) / w.size
			for r := 0; r < w.size; r++ {
				if r == root {
					continue
				}
				if err := c.SendFloats(r, tagScatter, values[r*k:(r+1)*k]); err != nil {
					return nil, err
				}
			}
			out := make([]float64, k)
			copy(out, values[root*k:])
			return out, nil
		}
		return c.recvChunk(root, tagScatter)
	}
}

// recvChunk receives one float frame of a priori unknown length.
func (c *Comm) recvChunk(src, tag int) ([]float64, error) {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return nil, err
	}
	out, err := decodeFloats(m.data)
	m.release()
	return out, err
}

// scatterTree is the binomial mirror of gatherTree: each parent peels off
// and forwards its children's sub-blocks (largest first), keeping only its
// own chunk.
func (c *Comm) scatterTree(root int, values []float64) ([]float64, error) {
	w := c.world
	vr := (c.rank - root + w.size) % w.size
	unvr := func(p int) int { return (p + root) % w.size }
	var buf []float64 // this subtree's block, virtual order, starting at vr
	var k int
	if vr == 0 {
		k = len(values) / w.size
		buf = make([]float64, w.size*k)
		for j := 0; j < w.size; j++ {
			copy(buf[j*k:], values[unvr(j)*k:(unvr(j)+1)*k])
		}
	} else {
		parent := vr & (vr - 1)
		var err error
		buf, err = c.recvChunk(unvr(parent), tagScatter)
		if err != nil {
			return nil, err
		}
		span := subtreeSpan(vr, w.size)
		if len(buf) == 0 || len(buf)%span != 0 {
			return nil, fmt.Errorf("mpi: scatter block of %d floats does not cover %d ranks", len(buf), span)
		}
		k = len(buf) / span
	}
	// Children sit at vr|bit for bits below vr's lowest set bit (any bit at
	// the root). Walk them in descending order so the biggest sub-blocks
	// leave first.
	start := 1
	for start<<1 < w.size {
		start <<= 1
	}
	if vr != 0 {
		start = (vr & -vr) >> 1
	}
	for bit := start; bit >= 1; bit >>= 1 {
		if child := vr | bit; child < w.size {
			m := subtreeSpan(child, w.size)
			if err := c.SendFloats(unvr(child), tagScatter, buf[bit*k:(bit+m)*k]); err != nil {
				return nil, err
			}
		}
	}
	out := make([]float64, k)
	copy(out, buf[:k])
	return out, nil
}

// scatterHier ships each segment's chunks to its leader as one block, then
// the leader deals them out intra-segment.
func (c *Comm) scatterHier(root int, values []float64) ([]float64, error) {
	w := c.world
	h := w.hier
	gi := h.groupOf[c.rank]
	rg := h.groupOf[root]
	leaders := h.leadersFor(root)
	leader := leaders[gi]
	switch {
	case c.rank == root:
		k := len(values) / w.size
		for _, r := range h.groups[rg] {
			if r == root {
				continue
			}
			if err := c.SendFloats(r, tagScatter, values[r*k:(r+1)*k]); err != nil {
				return nil, err
			}
		}
		for li, l := range leaders {
			if li == rg {
				continue
			}
			g := h.groups[li]
			blk := make([]float64, len(g)*k)
			for pos, r := range g {
				copy(blk[pos*k:], values[r*k:(r+1)*k])
			}
			if err := c.SendFloats(l, tagScatter, blk); err != nil {
				return nil, err
			}
		}
		out := make([]float64, k)
		copy(out, values[root*k:])
		return out, nil
	case c.rank == leader: // leader of a non-root segment
		g := h.groups[gi]
		blk, err := c.recvChunk(root, tagScatter)
		if err != nil {
			return nil, err
		}
		if len(blk) == 0 || len(blk)%len(g) != 0 {
			return nil, fmt.Errorf("mpi: scatter block of %d floats does not cover %d ranks", len(blk), len(g))
		}
		k := len(blk) / len(g)
		for pos, r := range g {
			if r == c.rank {
				continue
			}
			if err := c.SendFloats(r, tagScatter, blk[pos*k:(pos+1)*k]); err != nil {
				return nil, err
			}
		}
		pos := h.posInGroup[c.rank]
		out := make([]float64, k)
		copy(out, blk[pos*k:])
		return out, nil
	default:
		return c.recvChunk(leader, tagScatter)
	}
}

// Scatter distributes values[i] from root to rank i; every rank returns its
// element. At root, len(values) must equal Size. All ranks call it.
func (c *Comm) Scatter(root int, values []float64) (float64, error) {
	w := c.world
	if root < 0 || root >= w.size {
		return 0, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	if c.rank == root && len(values) != w.size {
		return 0, fmt.Errorf("mpi: scatter needs %d values, got %d", w.size, len(values))
	}
	out, err := c.ScatterFloats(root, values)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("mpi: scatter chunk has %d floats, want 1", len(out))
	}
	return out[0], nil
}
