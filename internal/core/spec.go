package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind names an allocation method family.
type Kind uint8

const (
	// KindNone is no method: a placement table that always votes to hold.
	KindNone Kind = iota
	// KindST1 never allocates a copy at the MC.
	KindST1
	// KindST2 always keeps a copy at the MC once a read allocates it.
	KindST2
	// KindSW is the sliding window SWk over the last K requests, K odd.
	KindSW
	// KindSWe is the tie-holding even window SWek, K even.
	KindSWe
	// KindT1 is T1m with threshold m = K.
	KindT1
	// KindT2 is T2m with threshold m = K.
	KindT2
	// KindCacheInv is the cache-and-invalidate baseline.
	KindCacheInv
	// KindEWMA is the estimator baseline with smoothing factor Alpha.
	KindEWMA
	numKinds
)

// forms gives each kind's spelling: a fixed prefix, then K or Alpha.
var forms = [numKinds]struct {
	prefix   string
	k, alpha bool
}{
	KindNone:     {prefix: "none"},
	KindST1:      {prefix: "ST1"},
	KindST2:      {prefix: "ST2"},
	KindSW:       {prefix: "SW", k: true},
	KindSWe:      {prefix: "SWe", k: true},
	KindT1:       {prefix: "T1:", k: true},
	KindT2:       {prefix: "T2:", k: true},
	KindCacheInv: {prefix: "CacheInv"},
	KindEWMA:     {prefix: "EWMA:", alpha: true},
}

// Spec names one allocation method with its parameter. It is the one
// vocabulary for methods: the simulator, the protocol (replica.Mode) and
// placement (tree.Policy) all parse, print and check methods through it,
// and each layer only says which kinds it runs.
type Spec struct {
	Kind Kind
	// K is the window size for SW and SWe and the threshold m for T1 and T2.
	K int
	// Alpha is the EWMA smoothing factor.
	Alpha float64
}

// String spells the spec the way ParseSpec reads it: "none", "ST1",
// "ST2", "SW5", "SWe4", "T1:7", "T2:7", "CacheInv" or "EWMA:0.3".
func (s Spec) String() string {
	if s.Kind >= numKinds {
		return fmt.Sprintf("Kind(%d)", s.Kind)
	}
	f := forms[s.Kind]
	switch {
	case f.k:
		return f.prefix + strconv.Itoa(s.K)
	case f.alpha:
		return f.prefix + strconv.FormatFloat(s.Alpha, 'g', -1, 64)
	}
	return f.prefix
}

// ParseSpec is the inverse of String: it accepts exactly the strings
// String prints for some Spec, and of those only the ones that validate.
func ParseSpec(name string) (Spec, error) {
	for kind, f := range forms {
		rest, ok := strings.CutPrefix(name, f.prefix)
		if !ok {
			continue
		}
		s := Spec{Kind: Kind(kind)}
		var err error
		switch {
		case f.k:
			s.K, err = strconv.Atoi(rest)
		case f.alpha:
			s.Alpha, err = strconv.ParseFloat(rest, 64)
		}
		if err != nil || s.String() != name {
			continue
		}
		if err := s.Validate(); err != nil {
			return Spec{}, err
		}
		return s, nil
	}
	return Spec{}, fmt.Errorf("unknown policy %q (want none, ST1, ST2, SWk, SWek, T1:m, T2:m, CacheInv or EWMA:alpha)", name)
}

// Validate is the one parameter check: SWk needs an odd k and SWek an
// even one, both within CheckWindowSize; T1m and T2m need m >= 1; EWMA
// needs alpha in (0, 1].
func (s Spec) Validate() error {
	switch s.Kind {
	case KindSW, KindSWe:
		parity := "odd"
		if s.Kind == KindSWe {
			parity = "even"
		}
		if s.K <= 0 || (s.K%2 == 0) != (s.Kind == KindSWe) {
			return fmt.Errorf("window size %d in %v must be %s and positive", s.K, s, parity)
		}
		if err := CheckWindowSize(s.K); err != nil {
			return fmt.Errorf("%w in %v", err, s)
		}
	case KindT1, KindT2:
		if s.K < 1 {
			return fmt.Errorf("threshold %d in %v must be positive", s.K, s)
		}
	case KindEWMA:
		if !(s.Alpha > 0 && s.Alpha <= 1) {
			return fmt.Errorf("alpha %v in %v must be in (0,1]", s.Alpha, s)
		}
	case KindNone, KindST1, KindST2, KindCacheInv:
	default:
		return fmt.Errorf("unknown policy kind %d", s.Kind)
	}
	return nil
}

// New builds the spec's policy, whose Name is s.String(); none has no
// policy and yields nil. s must validate.
func (s Spec) New() Policy {
	switch s.Kind {
	case KindST1:
		return NewST1()
	case KindST2:
		return NewST2()
	case KindSW:
		return NewSW(s.K)
	case KindSWe:
		return NewEvenSW(s.K)
	case KindT1:
		return NewT1(s.K)
	case KindT2:
		return NewT2(s.K)
	case KindCacheInv:
		return NewCacheInvalidate()
	case KindEWMA:
		return NewEWMA(s.Alpha)
	}
	return nil
}

// ParsePolicy is ParseSpec for the callers that build a policy from the
// name: it accepts every spec but none.
func ParsePolicy(name string) (Spec, error) {
	s, err := ParseSpec(name)
	if err == nil && s.Kind == KindNone {
		return Spec{}, fmt.Errorf("%q is not a policy (want ST1, ST2, SWk, SWek, T1:m, T2:m, CacheInv or EWMA:alpha)", name)
	}
	return s, err
}
