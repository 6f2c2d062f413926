package alloc

import (
	"testing"

	"dmexplore/internal/memhier"
)

// wordTracer counts the words of every traced access. Attaching it makes
// a context per-address, so a list built on it keeps the linear walks.
type wordTracer struct{ reads, writes uint64 }

func (w *wordTracer) TraceAccess(_ memhier.LayerID, _ uint64, words uint64, write bool) {
	if write {
		w.writes += words
	} else {
		w.reads += words
	}
}

// FuzzFreeList is the differential check of the indexed free list: the
// same Push / Take / Remove / PopHead sequence drives a list built on a
// flat context (indexed) and one built on a context with a counting
// tracer (linear walk) over twin blocks. The first byte picks fit × order × links; then each
// (op, arg) byte pair is one operation, with a bulk push that grows the
// lists to thousands of blocks. After every operation both lists must
// have chosen the same block and charged the same reads, writes and
// cycles, and the indexed list's keys and indexes must check.
func FuzzFreeList(f *testing.F) {
	for mode := byte(0); mode < 30; mode++ {
		f.Add([]byte{mode, 5, 3, 1, 0, 1, 7, 2, 13, 3, 4, 4, 0, 1, 25, 0, 9, 2, 0, 3, 1, 2, 210, 2, 211, 2, 212})
	}
	// 10k-block lists under best and worst fit, every order and linkage.
	for _, mode := range []byte{2, 3, 7, 8, 12, 13, 17, 18, 22, 23, 27, 28} {
		f.Add([]byte{mode, 1, 250, 2, 66, 2, 0, 3, 7, 2, 150, 4, 0, 2, 201, 0, 200, 2, 12, 3, 99, 2, 25})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] >= 30 {
			return
		}
		fit := FitPolicy(data[0] % 5)
		order := ListOrder(data[0] / 5 % 3)
		links := ListLinks(data[0] / 15)
		fast := testCtx(t)
		traced := testCtx(t)
		tracer := &wordTracer{}
		traced.SetTracer(tracer)
		lx := newFreeList(fast, 0, 0, order, links, fit, nil)
		ll := newFreeList(traced, 0, 0, order, links, fit, nil)
		if indexable := fit == BestFit || fit == WorstFit || order == AddrOrder; (lx.index != nil) != indexable {
			t.Fatalf("%v/%v list on a flat context: index %v", fit, order, lx.index)
		}
		if ll.index != nil {
			t.Fatal("list on a traced context keeps an index")
		}

		// Twin blocks: i-th of xs and ls share address and size. Addresses
		// are a permutation of 64-byte slots, sizes repeat often.
		const maxBlocks = 12000 // addresses stay distinct below 65,536
		var xs, ls []*Block
		var unlisted []int
		addBlock := func() {
			i := len(xs)
			addr := uint64(i*40503&0xffff) * 64
			size := 8 * int64(1+uint32(i)*2654435761>>20%24)
			xs = append(xs, freeBlock(addr, size))
			ls = append(ls, freeBlock(addr, size))
			unlisted = append(unlisted, i)
		}
		push := func(arg int) {
			if len(unlisted) == 0 {
				if len(xs) == maxBlocks {
					return
				}
				addBlock()
			}
			k := arg % len(unlisted)
			i := unlisted[k]
			unlisted[k] = unlisted[len(unlisted)-1]
			unlisted = unlisted[:len(unlisted)-1]
			lx.Push(xs[i])
			ll.Push(ls[i])
		}
		// chosen compares the blocks the two lists returned.
		chosen := func(op string, x, l *Block) {
			if (x == nil) != (l == nil) || x != nil && x.addr != l.addr {
				t.Fatalf("%v/%v/%v %s: indexed chose %v, linear %v", fit, order, links, op, x, l)
			}
			if x != nil {
				for i := range xs {
					if xs[i] == x {
						unlisted = append(unlisted, i)
						break
					}
				}
			}
		}
		// nth returns the listed twins at position arg%len along the list.
		nth := func(arg int) (*Block, *Block) {
			k := arg % lx.Len()
			x, l := lx.head, ll.head
			for ; k > 0; k-- {
				x, l = x.flNext, l.flNext
			}
			return x, l
		}

		ops := data[1:]
		for j := 0; j+1 < len(ops); j += 2 {
			op, arg := ops[j]%5, int(ops[j+1])
			switch op {
			case 0:
				push(arg)
			case 1:
				// Bulk push: up to 10,200 blocks a step.
				for n := 40 * arg; n > 0; n-- {
					push(n * 7)
				}
			case 2:
				take, need := fit, 8*int64(arg%26)
				if arg >= 208 {
					take = FitPolicy(arg % 5) // e.g. a pool's first-fit escalation
				}
				chosen("take", lx.Take(take, need), ll.Take(take, need))
			case 3:
				if lx.Len() > 0 {
					x, l := nth(arg * 131)
					lx.Remove(x)
					ll.Remove(l)
					chosen("remove", x, l)
				}
			case 4:
				chosen("pop", lx.PopHead(), ll.PopHead())
			}
			cx, cl := fast.Counters(0), traced.Counters(0)
			if cx.Reads != cl.Reads || cx.Writes != cl.Writes || fast.Cycles() != traced.Cycles() {
				t.Fatalf("%v/%v/%v op %d (%d, %d): indexed %d/%d/%d, linear %d/%d/%d reads/writes/cycles",
					fit, order, links, j/2, op, arg, cx.Reads, cx.Writes, fast.Cycles(), cl.Reads, cl.Writes, traced.Cycles())
			}
			if tracer.reads != cl.Reads || tracer.writes != cl.Writes {
				t.Fatalf("op %d: tracer saw %d/%d words, counters hold %d/%d", j/2, tracer.reads, tracer.writes, cl.Reads, cl.Writes)
			}
			if lx.Len() <= 1024 {
				if err := lx.check(); err != nil {
					t.Fatalf("op %d: %v", j/2, err)
				}
			}
			if lx.index != nil && lx.Len() >= indexFrom && !lx.index.built {
				t.Fatalf("op %d: %d-block list is not indexed", j/2, lx.Len())
			}
		}
		if err := lx.check(); err != nil {
			t.Fatal(err)
		}
		if lx.Len() != ll.Len() {
			t.Fatalf("lengths %d indexed, %d linear", lx.Len(), ll.Len())
		}
		for x, l := lx.head, ll.head; x != nil; x, l = x.flNext, l.flNext {
			if x.addr != l.addr {
				t.Fatalf("list order diverged at %v / %v", x, l)
			}
		}
	})
}
