package serve

import (
	"sync"

	"athena/internal/core"
	"athena/internal/qnn"
)

// HoldEvaluations makes every batch s evaluates from now on wait, with
// its session lock held, until release is called; from then on batches
// evaluate as before. Call it while s has no batch in flight.
func HoldEvaluations(s *Server) (release func()) {
	gate := make(chan struct{})
	b := s.batcher
	b.mu.Lock()
	b.cfg.Eval = func(sess *Session, q *qnn.QNetwork, ins []*core.EncryptedInput) ([]*core.EncryptedLogits, error) {
		<-gate
		return sess.Eng.EvaluateEncryptedBatch(q, ins)
	}
	b.mu.Unlock()
	return sync.OnceFunc(func() { close(gate) })
}
