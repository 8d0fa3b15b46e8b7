package core

import "graphit/internal/bucket"

// eagerBins is the bucketSource for eager bucket update (paper Figure 6):
// per-worker thread-local bins written directly during edge relaxation.
// next() is the paper's barrier-time min-reduction — the minimum non-empty
// bucket across all workers' bins, gathered into one shared frontier.
// update() is a no-op because eager traversals re-bucket inline.
type eagerBins struct {
	bins []*bucket.LocalBins
	sc   *scratch
	cur  int64 // current bucket; re-inserts into it are reprocessed
}

func (e *eagerBins) next() (int64, []uint32) {
	nb := bucket.NullBkt
	for _, b := range e.bins {
		if p := b.MinNonEmpty(e.cur); p != bucket.NullBkt && p < nb {
			nb = p
		}
	}
	if nb == bucket.NullBkt {
		return bucket.NullBkt, nil
	}
	fr := e.sc.frontier[:0]
	for _, b := range e.bins {
		fr = append(fr, b.Take(nb)...)
	}
	e.sc.frontier = fr
	e.cur = nb
	return nb, fr
}

func (e *eagerBins) update(ids []uint32) int { return 0 }

func (e *eagerBins) finish(st *Stats) {
	for _, b := range e.bins {
		st.BucketInserts += b.Inserts
	}
}
