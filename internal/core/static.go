package core

import "mobirep/internal/sched"

// ST1 is the static one-copy allocation method: only the stationary
// computer holds the data item, so every read at the mobile computer is
// remote and every write is free of communication.
type ST1 struct{}

// NewST1 returns the static one-copy policy.
func NewST1() *ST1 { return &ST1{} }

// Name implements Policy.
func (*ST1) Name() string { return "ST1" }

// HasCopy implements Policy; it is always false for ST1.
func (*ST1) HasCopy() bool { return false }

// Apply implements Policy.
func (*ST1) Apply(op sched.Op) Step { return step(op, false, false, false) }

// ApplyBlock implements BlockPolicy: no copy after any request.
func (*ST1) ApplyBlock(ops sched.Schedule, has []uint64) {
	clear(has[:(len(ops)+63)/64])
}

// SuppressesWrites implements BlockPolicy.
func (*ST1) SuppressesWrites() bool { return false }

// Reset implements Policy; ST1 is stateless.
func (*ST1) Reset() {}

// ST2 is the static two-copies allocation method: the mobile computer
// always holds a copy, so reads are local and every write is propagated.
type ST2 struct{}

// NewST2 returns the static two-copies policy.
func NewST2() *ST2 { return &ST2{} }

// Name implements Policy.
func (*ST2) Name() string { return "ST2" }

// HasCopy implements Policy; it is always true for ST2.
func (*ST2) HasCopy() bool { return true }

// Apply implements Policy.
func (*ST2) Apply(op sched.Op) Step { return step(op, true, true, false) }

// ApplyBlock implements BlockPolicy: a copy after every request.
func (*ST2) ApplyBlock(ops sched.Schedule, has []uint64) {
	n := len(ops)
	words := has[:(n+63)/64]
	for w := range words {
		words[w] = ^uint64(0)
	}
	if n%64 != 0 {
		words[len(words)-1] = 1<<(n&63) - 1
	}
}

// SuppressesWrites implements BlockPolicy.
func (*ST2) SuppressesWrites() bool { return false }

// Reset implements Policy; ST2 is stateless.
func (*ST2) Reset() {}
