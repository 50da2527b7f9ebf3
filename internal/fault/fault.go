// Package fault provides deterministic fault injection for the durability
// and replication stack: a virtual filesystem (FS) that fails, shortens or
// corrupts the write-ahead log's file operations, and an http.RoundTripper
// (Transport) that fails requests or cuts and corrupts the replication
// wire.
//
// Faults are driven by a Schedule: a set of rules keyed on operation kind
// and occurrence count ("fail the 3rd fsync", "short-write the 5th append
// after 10 bytes", "cut every stream body after ~1 KB with probability
// 0.2"). Deterministic rules fire on exact counts; probabilistic rules draw
// from a PRNG seeded by the caller — so every chaos run is replayable from
// its seed, and a failing schedule can be re-run unchanged until the bug is
// understood.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
)

// Op identifies a fault-injection site.
type Op uint8

const (
	// OpWrite is one File.Write call (a WAL append lands as one).
	OpWrite Op = iota
	// OpSync is one File.Sync (fsync) call.
	OpSync
	// OpRead is one File.Read call.
	OpRead
	// OpTruncate is one File.Truncate call.
	OpTruncate
	// OpOpen counts VFS.Open and VFS.OpenFile; OpCreate counts CreateTemp.
	OpOpen
	OpCreate
	// OpRename and OpRemove are the rotation/cleanup path operations.
	OpRename
	OpRemove
	// OpRoundTrip is one HTTP request through Transport; OpBody is the
	// per-response body decision (cut or corrupt the stream mid-flight).
	OpRoundTrip
	OpBody
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	names := [...]string{"write", "sync", "read", "truncate", "open", "create",
		"rename", "remove", "roundtrip", "body"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// ErrInjected is the default injected failure; rules may substitute a
// specific errno (e.g. syscall.ENOSPC) to model a concrete fault.
var ErrInjected = errors.New("fault: injected error")

// Decision is what a Schedule decides for one operation. The zero value
// lets the operation through untouched.
type Decision struct {
	// Err, when non-nil, fails the operation with this error. For writes
	// and body reads, Keep bytes are let through first (a short write or a
	// stream cut mid-record); Keep 0 fails before any byte moves.
	Err error
	// Keep is the byte budget that accompanies Err (see above) or Flip
	// (the offset of the corrupted byte).
	Keep int
	// Flip corrupts one byte of the data in flight instead of failing:
	// the byte at stream offset Keep is XOR'd. The operation succeeds, so
	// the corruption is only detectable by the receiver's checksums.
	Flip bool
}

// fires reports whether the decision does anything.
func (d Decision) fires() bool {
	return d.Err != nil || d.Flip
}

// rule is one deterministic trigger: fire at occurrence n of op (and every
// later occurrence when sticky — a disk that filled up stays full).
type rule struct {
	op     Op
	n      int
	sticky bool
	d      Decision
}

// Schedule decides, per operation kind and occurrence, whether to inject a
// fault. Deterministic rules (FailNth and friends) fire on exact 1-based
// occurrence counts; probabilistic rules (Probabilistic, requires Seeded)
// fire with a fixed probability per occurrence. All methods are safe for
// concurrent use; rule registration should finish before the schedule is
// shared.
type Schedule struct {
	mu       sync.Mutex
	counts   [numOps]int
	rules    []rule
	probs    [numOps]float64
	probD    [numOps]Decision
	rng      *rand.Rand
	injected int
}

// NewSchedule returns an empty schedule (deterministic rules only).
func NewSchedule() *Schedule { return &Schedule{} }

// Seeded returns a schedule whose probabilistic rules draw from a PRNG
// seeded with seed: the same seed and the same operation sequence replay
// the same faults.
func Seeded(seed uint64) *Schedule {
	return &Schedule{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Rule registers d to fire at the nth (1-based) occurrence of op.
func (s *Schedule) Rule(op Op, n int, d Decision) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, rule{op: op, n: n, d: d})
	return s
}

// FailNth fails the nth occurrence of op with err (ErrInjected when nil).
func (s *Schedule) FailNth(op Op, n int, err error) *Schedule {
	return s.Rule(op, n, Decision{Err: orInjected(err)})
}

// FailFrom fails the nth and every later occurrence of op — the shape of a
// disk that filled up (pass syscall.ENOSPC) or a device that died.
func (s *Schedule) FailFrom(op Op, n int, err error) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, rule{op: op, n: n, sticky: true, d: Decision{Err: orInjected(err)}})
	return s
}

// ShortWriteNth lets the nth occurrence of op write keep bytes and then
// fails it with err — a torn append.
func (s *Schedule) ShortWriteNth(op Op, n, keep int, err error) *Schedule {
	return s.Rule(op, n, Decision{Err: orInjected(err), Keep: keep})
}

// FlipNth corrupts one byte (at stream offset off) of the nth occurrence
// of op without failing it.
func (s *Schedule) FlipNth(op Op, n, off int) *Schedule {
	return s.Rule(op, n, Decision{Flip: true, Keep: off})
}

// Probabilistic fires d on each occurrence of op with probability p.
// The schedule must have been built with Seeded. A negative d.Keep is
// randomized per firing (0–4095), varying the cut/corruption offset.
func (s *Schedule) Probabilistic(op Op, p float64, d Decision) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		panic("fault: Probabilistic needs a Seeded schedule")
	}
	s.probs[op] = p
	s.probD[op] = d
	return s
}

// Next counts one occurrence of op and returns the schedule's decision
// for it.
func (s *Schedule) Next(op Op) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[op]++
	n := s.counts[op]
	for _, r := range s.rules {
		if r.op != op {
			continue
		}
		if n == r.n || (r.sticky && n >= r.n) {
			s.injected++
			return r.d
		}
	}
	if s.rng != nil && s.probs[op] > 0 && s.rng.Float64() < s.probs[op] {
		d := s.probD[op]
		if d.Keep < 0 {
			d.Keep = s.rng.IntN(4096)
		}
		s.injected++
		return d
	}
	return Decision{}
}

// Count returns how many occurrences of op the schedule has seen.
func (s *Schedule) Count(op Op) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[op]
}

// Injected returns how many faults the schedule has fired — the assertion
// hook that proves a chaos run actually injected something.
func (s *Schedule) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

func orInjected(err error) error {
	if err == nil {
		return ErrInjected
	}
	return err
}
