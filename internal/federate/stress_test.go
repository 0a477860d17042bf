package federate

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/registry"
	"repro/internal/transport"
)

// TestRollupVsChurnRace exercises digest roll-up concurrently with
// cohort churn, stream ingest, and aggregator merging — run under -race
// in CI (the federation-drill job). The leaf re-learns its cohort set
// from a fresh assignment table every few iterations while Rollup sweeps
// the registry and the aggregator ingests whatever arrives.
func TestRollupVsChurnRace(t *testing.T) {
	hub := transport.NewHub(0, 0, 1)
	leafEP := hub.Endpoint("leaf-1")
	aggEP := hub.Endpoint("agg-0")
	defer leafEP.Close()
	defer aggEP.Close()

	reg := registry.New(nil,
		func(string) detector.Detector { return detector.NewChen(8, clock.Millisecond, clock.Millisecond) },
		registry.Options{EvictAfter: -1})
	cohorts := make([]string, 8)
	for i := range cohorts {
		cohorts[i] = fmt.Sprintf("r/c%d/#", i)
	}
	leaf, err := NewLeaf(leafEP, nil, reg, "agg-0", LeafOptions{
		ID: "leaf-1", Region: "r", Cohorts: cohorts, Interval: clock.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(aggEP, nil, AggregatorOptions{ID: "agg-0", DigestInterval: clock.Millisecond})

	const iters = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Ingest: streams across every cohort heartbeat continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		clk := clock.NewReal()
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			now := clk.Now()
			for i := 0; i < len(cohorts); i++ {
				reg.Observe(heartbeat.Arrival{
					From: fmt.Sprintf("r/c%d/s%d", i, seq%17), Seq: seq, Send: now, Recv: now, Inc: 1,
				})
			}
		}
	}()

	// Churn: alternating assignment tables re-shape the cohort set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= iters; v++ {
			var entries []AssignEntry
			for i, f := range cohorts {
				owner := "leaf-1"
				if (int(v)+i)%3 == 0 {
					owner = "leaf-2" // a third of the cohorts move away and back
				}
				entries = append(entries, AssignEntry{Cohort: f, Owner: owner})
			}
			leaf.HandleDatagram(Assignment{Agg: "agg-0", Version: v, Entries: entries}.Marshal())
		}
	}()

	// Wheel: each tick ends with the leaf's urgent push, which races the
	// roll-up below for the leaf's lock and the aggregator's merge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		clk := clock.NewReal()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Tick(clk.Now())
		}
	}()

	// Aggregator drains the hub and merges concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				// Drain what's still queued before exiting: on a
				// single-CPU box every digest can be sitting in the
				// hub buffer when stop closes, and the select above
				// may take the stop arm first.
				for {
					select {
					case in, ok := <-aggEP.Recv():
						if !ok {
							return
						}
						agg.HandleDatagram(in.From, in.Payload)
					default:
						return
					}
				}
			case in, ok := <-aggEP.Recv():
				if !ok {
					return
				}
				agg.HandleDatagram(in.From, in.Payload)
			}
		}
	}()

	// Roll-up: the racing sweep itself.
	for i := 0; i < iters; i++ {
		leaf.Rollup(clock.Time(i) * clock.Time(clock.Millisecond))
	}
	close(stop)
	wg.Wait()

	lc := leaf.Counters()
	if lc.Rollups != iters {
		t.Fatalf("rollups = %d, want %d", lc.Rollups, iters)
	}
	if lc.AssignsApplied == 0 {
		t.Fatal("no assignment tables applied under churn")
	}
	if ac := agg.Counters(); ac.DigestsReceived == 0 {
		t.Fatal("aggregator received no digests")
	}
	t.Logf("urgent: %d sent, %d deferred", lc.UrgentSent, lc.UrgentDeferred)
}
