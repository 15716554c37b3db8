package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler polls the Go runtime's own accounting for the memory the
// process holds from the OS: everything mapped minus what the runtime has
// released. The window's memory metric is a high quantile of these samples,
// not their maximum: the maximum belongs to the one largest job of a run and
// moves with the seed, and the kernel's VmHWM moves further with when the
// kernel reclaims lazily freed pages.
type memSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	held []float64 // MB, one sample per tick
}

const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			s.held = append(s.held, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64())/(1<<20))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns its samples in MB.
func (s *memSampler) stopMB() []float64 {
	close(s.stop)
	s.wg.Wait()
	return s.held
}
