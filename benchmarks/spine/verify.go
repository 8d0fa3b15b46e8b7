package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"

	"graphit"
	"graphit/internal/server"
)

// checkAnswer compares one /query reply with a reference distance vector
// from the same source. Distance algorithms must agree on the reached count,
// the maximum and every selected vertex; pair algorithms on the pair.
func checkAnswer(q *server.Query, resp *server.Response, ref []int64) error {
	switch q.Algo {
	case "ppsp", "astar":
		want := ref[q.Dst]
		switch {
		case want == graphit.Unreached && resp.PairDist != nil:
			return fmt.Errorf("%s %d->%d: got %d, want unreachable", q.Algo, q.Src, q.Dst, *resp.PairDist)
		case want != graphit.Unreached && (resp.PairDist == nil || *resp.PairDist != want):
			return fmt.Errorf("%s %d->%d: got %v, want %d", q.Algo, q.Src, q.Dst, resp.PairDist, want)
		}
		return nil
	}
	reached, max := 0, int64(0)
	for _, d := range ref {
		if d != graphit.Unreached {
			reached++
			if d > max {
				max = d
			}
		}
	}
	if resp.Reached == nil || *resp.Reached != reached {
		return fmt.Errorf("%s from %d: reached %v, want %d", q.Algo, q.Src, resp.Reached, reached)
	}
	if resp.MaxValue == nil || *resp.MaxValue != max {
		return fmt.Errorf("%s from %d: max %v, want %d", q.Algo, q.Src, resp.MaxValue, max)
	}
	for _, v := range q.Vertices {
		got, ok := resp.Values[strconv.FormatUint(uint64(v), 10)]
		if !ok || got != ref[v] {
			return fmt.Errorf("%s from %d: value[%d] = %d (present %v), want %d", q.Algo, q.Src, v, got, ok, ref[v])
		}
	}
	return nil
}

// verifyPlan describes one answer-checking pass: sources, how to derive the
// checked queries of a source, and the reference.
type verifyPlan struct {
	sources []uint32
	queries func(r *rand.Rand, src uint32) []server.Query
	ref     func(src uint32) ([]int64, error)
	// epoch, when wantEpoch is set, is the epoch every reply must carry.
	wantEpoch bool
	epoch     uint64
	// tamper, set only by the smoke test, corrupts replies before they are
	// checked to prove a wrong answer is counted as failed.
	tamper func(*server.Response)
}

// verify runs the plan's queries against st outside any timed window, two
// sources at a time, and tallies each reply in chk.
func verify(st *stack, p verifyPlan, seed uint64, chk *checker) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range next {
				src := p.sources[i]
				ref, err := p.ref(src)
				if err != nil {
					chk.note(fmt.Errorf("reference from %d: %w", src, err))
					continue
				}
				for _, q := range p.queries(streamRand(seed, 1<<34+uint64(i)), src) {
					resp, _, err := c.postQuery(st.url, &q)
					if err == nil {
						if p.tamper != nil {
							p.tamper(resp)
						}
						err = checkAnswer(&q, resp, ref)
					}
					if err == nil && p.wantEpoch && resp.Epoch != p.epoch {
						err = fmt.Errorf("%s from %d answered at epoch %d, want %d", q.Algo, q.Src, resp.Epoch, p.epoch)
					}
					chk.note(err)
				}
			}
		}()
	}
	for i := range p.sources {
		next <- i
	}
	close(next)
	wg.Wait()
}

// selection draws k distinct-enough vertices to ask values for.
func selection(r *rand.Rand, n, k int) []uint32 {
	vs := make([]uint32, k)
	for i := range vs {
		vs[i] = r.Uint32N(uint32(n))
	}
	return vs
}

// randomSources draws k vertices from seed.
func randomSources(seed uint64, n, k int) []uint32 {
	return selection(streamRand(seed, 1<<35), n, k)
}
