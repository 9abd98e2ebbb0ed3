// Package holddemo seeds accept and reject cases for the blockhold
// pass: blocking operations (sleeps, channel ops, selects without a
// default, net/file IO, WaitGroup waits) reached while a mutex is
// statically held are flagged — directly and through static call
// chains — while unlocked blocking, selects with a default, deferred
// teardown, and //lint:holdok-justified sites are not.
package holddemo

import (
	"net"
	"os"
	"sync"
	"time"
)

type server struct {
	mu   sync.Mutex
	conn net.Conn
	file *os.File
	wg   sync.WaitGroup

	dataC chan int
	doneC chan struct{}
}

// SleepHeld blocks in time.Sleep with the lock held.
func (s *server) SleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want blockhold
	s.mu.Unlock()
}

// SendHeld performs a channel send with the lock held.
func (s *server) SendHeld() {
	s.mu.Lock()
	s.dataC <- 1 // want blockhold
	s.mu.Unlock()
}

// RecvHeld performs a channel receive with the lock held.
func (s *server) RecvHeld() {
	s.mu.Lock()
	<-s.dataC // want blockhold
	s.mu.Unlock()
}

// SelectHeld blocks in a default-less select with the lock held.
func (s *server) SelectHeld() {
	s.mu.Lock()
	select { // want blockhold
	case v := <-s.dataC:
		_ = v
	case <-s.doneC:
	}
	s.mu.Unlock()
}

// RangeHeld ranges over a channel with the lock held.
func (s *server) RangeHeld() {
	s.mu.Lock()
	for v := range s.dataC { // want blockhold
		_ = v
	}
	s.mu.Unlock()
}

// NetWriteHeld writes to the network with the lock held.
func (s *server) NetWriteHeld(p []byte) {
	s.mu.Lock()
	_, _ = s.conn.Write(p) // want blockhold
	s.mu.Unlock()
}

// FsyncHeld fsyncs with the lock held.
func (s *server) FsyncHeld() {
	s.mu.Lock()
	_ = s.file.Sync() // want blockhold
	s.mu.Unlock()
}

// WaitHeld waits on a WaitGroup with the lock held.
func (s *server) WaitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want blockhold
	s.mu.Unlock()
}

func (s *server) napDirect() {
	time.Sleep(time.Millisecond)
}

func (s *server) napNested() {
	s.napDirect()
}

// CallBlocksHeld reaches a sleep through one static call with the lock
// held; the finding lands on the call site with a witness chain.
func (s *server) CallBlocksHeld() {
	s.mu.Lock()
	s.napDirect() // want blockhold
	s.mu.Unlock()
}

// DeepCallBlocksHeld reaches the sleep two calls down.
func (s *server) DeepCallBlocksHeld() {
	s.mu.Lock()
	s.napNested() // want blockhold
	s.mu.Unlock()
}

// DeferredUnlockStillHeld proves `defer mu.Unlock()` keeps the lock
// held for the remainder of the body: the sleep after it is flagged.
func (s *server) DeferredUnlockStillHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want blockhold
}

// SleepUnlocked blocks only after the lock is released.
func (s *server) SleepUnlocked() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// SelectDefaultHeld polls with a default clause: non-blocking by
// construction, never flagged.
func (s *server) SelectDefaultHeld() {
	s.mu.Lock()
	select {
	case v := <-s.dataC:
		_ = v
	default:
	}
	s.mu.Unlock()
}

// DeferredTeardownHeld defers the blocking teardown: it runs after the
// function body, outside the critical section's own operations.
func (s *server) DeferredTeardownHeld() {
	s.mu.Lock()
	defer s.file.Sync()
	s.mu.Unlock()
}

// JustifiedDirect carries a holdok justification on its blocking site.
func (s *server) JustifiedDirect() {
	s.mu.Lock()
	s.dataC <- 1 //lint:holdok the admission bound keeps capacity available, so the send never blocks
	s.mu.Unlock()
}

// justifiedSend's only blocking site is holdok-justified, so the site
// is folded out of the summary.
func (s *server) justifiedSend() {
	//lint:holdok the admission bound keeps capacity available, so the send never blocks
	s.dataC <- 1
}

// CallsJustified holds the lock across a call whose only blocking site
// is justified: the fold keeps the caller clean.
func (s *server) CallsJustified() {
	s.mu.Lock()
	s.justifiedSend()
	s.mu.Unlock()
}

// NearMissHoldok misspells its justification: a kind followed by more
// letters is no directive, so the comment is an allowlist finding and
// the sleep stays flagged.
func (s *server) NearMissHoldok() {
	s.mu.Lock()
	//lint:holdokay
	time.Sleep(time.Millisecond) // want blockhold
	s.mu.Unlock()
}
