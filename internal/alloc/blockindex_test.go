package alloc

import (
	"testing"

	"dmexplore/internal/simheap"
)

// longWalkList returns a flat LIFO single-link list, searched with fit,
// of n blocks at list positions 0..n-1 (head first): 16 bytes each, or
// as sizes gives. Its walk trigger has built the order index: two
// windows of searches for 1 KiB, which fits nowhere, have walked the
// whole list each time.
func longWalkList(t *testing.T, fit FitPolicy, n int, sizes map[int]int64) (*simheap.Context, *FreeList, []*Block) {
	t.Helper()
	ctx := testCtx(t)
	l := newFreeList(ctx, 0, 0, LIFO, SingleLink, fit, nil)
	bs := make([]*Block, n)
	for i := n - 1; i >= 0; i-- { // a LIFO list lists the last push first
		size, ok := sizes[i]
		if !ok {
			size = 16
		}
		bs[i] = freeBlock(uint64(i)*256, size)
		l.Push(bs[i])
	}
	for i := 0; i < 2*walkWindow; i++ {
		if b := l.Take(fit, 1024); b != nil {
			t.Fatalf("a 1 KiB search took %v", b)
		}
		if built := l.index.built[orderIdx]; built != (i == 2*walkWindow-1) {
			t.Fatalf("after %d whole-list walks the order index is built: %v", i+1, built)
		}
	}
	if !l.index.fitting(ctx) {
		t.Fatal("two windows of whole-list walks built no order index")
	}
	return ctx, l, bs
}

// charged runs op on l and checks the block it returns and the reads and
// writes it charges, and that the list and its index still check.
func charged(t *testing.T, ctx *simheap.Context, l *FreeList, what string, op func() *Block, want *Block, reads, writes uint64) {
	t.Helper()
	before := ctx.Counters(0)
	got := op()
	after := ctx.Counters(0)
	if got != want {
		t.Errorf("%s: got %v, want %v", what, got, want)
	}
	if r, w := after.Reads-before.Reads, after.Writes-before.Writes; r != reads || w != writes {
		t.Errorf("%s: charged %d reads, %d writes; want %d, %d", what, r, w, reads, writes)
	}
	if err := l.check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestIndexedNextFitRover checks indexed next-fit searches against the
// walk's exact charges: head and rover reads, two reads per visited
// block, the rover write and the predecessor's link write. Each search
// resumes where the last one stopped, also after the rover's own block
// is removed.
func TestIndexedNextFitRover(t *testing.T) {
	ctx, l, bs := longWalkList(t, NextFit, 300, map[int]int64{100: 64, 200: 64})
	take := func() *Block { return l.Take(NextFit, 64) }
	// From the head to position 100: 101 blocks.
	charged(t, ctx, l, "first take", take, bs[100], 2+2*101, 2)
	// From bs[101], the rover, to bs[200]: 100 blocks.
	charged(t, ctx, l, "second take", take, bs[200], 2+2*100, 2)
	if l.rover != bs[201] {
		t.Fatalf("rover at %v, want %v", l.rover, bs[201])
	}
	// Removing the rover's block (single link: the head read, a read
	// for each of the 199 blocks before it, its own link) moves the
	// rover on.
	charged(t, ctx, l, "remove rover", func() *Block { l.Remove(bs[201]); return bs[201] }, bs[201], 1+199+1, 1)
	charged(t, ctx, l, "take at rover", func() *Block { return l.Take(NextFit, 16) }, bs[202], 2+2, 2)
	if l.rover != bs[203] || !l.index.fitting(ctx) {
		t.Fatalf("rover at %v (want %v), index answering %v", l.rover, bs[203], l.index.fitting(ctx))
	}
}

// TestIndexedNextFitWrap checks the wrap: a search from the middle of
// the list that finds nothing walks every block and re-reads the head
// pointer once, and leaves the rover where it was; one whose fit lies
// before the rover walks to the tail, re-reads the head and stops there.
func TestIndexedNextFitWrap(t *testing.T) {
	ctx, l, bs := longWalkList(t, NextFit, 300, map[int]int64{100: 64})
	charged(t, ctx, l, "take", func() *Block { return l.Take(NextFit, 64) }, bs[100], 2+2*101, 2)
	// From bs[101] (position 100 of 299) round to it again.
	charged(t, ctx, l, "no fit", func() *Block { return l.Take(NextFit, 64) }, nil, 2+2*299+1, 0)
	if l.rover != bs[101] {
		t.Fatalf("a failed search moved the rover to %v", l.rover)
	}
	// A fit pushed at the head: 199 blocks from the rover to the tail,
	// the head re-read, then the head itself, unlinked by a head write.
	big := freeBlock(300*256, 64)
	l.Push(big)
	charged(t, ctx, l, "wrapped fit", func() *Block { return l.Take(NextFit, 64) }, big, 2+2*(199+1)+1, 2)
	if l.rover != bs[0] {
		t.Fatalf("rover at %v after a fit at the head, want %v", l.rover, bs[0])
	}
}

// TestIndexedFitHysteresis checks the walk-length trigger on a
// first-fit list: a window of one-block walks drops the order index, two
// windows of whole-list walks less one do not rebuild it, the second
// window's last walk does, and the rebuilt index charges what the walk
// charged.
func TestIndexedFitHysteresis(t *testing.T) {
	ctx, l, bs := longWalkList(t, FirstFit, 300, map[int]int64{0: 64, 150: 128})
	for i := 0; i < walkWindow; i++ {
		// The head fits: its two reads and the head pointer's read and
		// write. Pushed back, it is the head again.
		charged(t, ctx, l, "short take", func() *Block { return l.Take(FirstFit, 64) }, bs[0], 1+2, 1)
		l.Push(bs[0])
	}
	if l.index.built[orderIdx] || l.index.fitting(ctx) {
		t.Fatal("a window of one-block walks kept the order index")
	}
	none := func() *Block { return l.Take(FirstFit, 1024) }
	for i := 0; i < 2*walkWindow-1; i++ {
		charged(t, ctx, l, "walked no fit", none, nil, 1+2*300, 0)
		if l.index.built[orderIdx] {
			t.Fatalf("the order index came back after %d long walks", i+1)
		}
	}
	charged(t, ctx, l, "window end", none, nil, 1+2*300, 0)
	if !l.index.fitting(ctx) {
		t.Fatal("two windows of long walks did not rebuild the order index")
	}
	charged(t, ctx, l, "indexed no fit", none, nil, 1+2*300, 0)
	// Past the prefix: 151 blocks, then the predecessor's link write.
	charged(t, ctx, l, "indexed fit", func() *Block { return l.Take(FirstFit, 128) }, bs[150], 1+2*151, 1)
}
