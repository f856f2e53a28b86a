package main

import (
	"time"

	"powerfail"
	"powerfail/internal/addr"
	"powerfail/internal/blockdev"
	"powerfail/internal/content"
)

// spanShim sits between a platform's host queue and its device and
// records two spans from outside the program: "submit", the synchronous
// device or array work of one Submit call, and "complete", the upward
// completion through blockdev, the runner and the analyzer. Spans nest
// (a completion can submit the next sub-request, a device can fail fast
// inside Submit), so each span's self time excludes its children.
type spanShim struct {
	blockdev.Drive

	open             []openSpan
	submit, complete spanStat
	free             []*shimCall
}

type openSpan struct {
	start time.Time
	child time.Duration
}

// spanStat accumulates one span kind: calls and summed self time.
type spanStat struct {
	calls int64
	self  time.Duration
}

// shimCall is a pooled completion wrapper: fn is created once and
// reused, so the shim adds no allocation per IO in steady state.
type shimCall struct {
	done func(error, content.Data)
	fn   func(error, content.Data)
}

// install puts the shim in front of p's device: the host queue is rebuilt
// over the shim with the platform's own block-layer config, tracer and
// observability scope. Call it after NewPlatform and before NewRunner.
func (s *spanShim) install(p *powerfail.Platform) error {
	s.Drive = p.Dev
	q, err := blockdev.New(p.K, s, p.Tracer, p.Opts.Host)
	if err != nil {
		return err
	}
	q.Observe(p.ObsScope("blockdev"))
	p.Host = q
	return nil
}

func (s *spanShim) enter() { s.open = append(s.open, openSpan{start: time.Now()}) }

func (s *spanShim) exit(st *spanStat) {
	n := len(s.open) - 1
	sp := s.open[n]
	s.open = s.open[:n]
	d := time.Since(sp.start)
	st.calls++
	st.self += d - sp.child
	if n > 0 {
		s.open[n-1].child += d
	}
}

// Submit implements blockdev.Device.
func (s *spanShim) Submit(op blockdev.Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	var c *shimCall
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
	} else {
		c = &shimCall{}
		c.fn = func(err error, res content.Data) {
			done := c.done
			c.done = nil
			s.free = append(s.free, c)
			s.enter()
			done(err, res)
			s.exit(&s.complete)
		}
	}
	c.done = done
	s.enter()
	s.Drive.Submit(op, lpn, pages, data, c.fn)
	s.exit(&s.submit)
}
