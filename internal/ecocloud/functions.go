// Package ecocloud implements the paper's contribution: the decentralized,
// probabilistic assignment and migration procedures that consolidate VMs
// onto as few servers as possible using only per-server local information.
//
// Every decision is a Bernoulli trial. A server invited to host a VM accepts
// with probability fa(u) (Eq. 1–2), which is zero for an idle server (so
// draining servers stay on course to hibernate), zero above the threshold Ta
// (so packing never overloads), and maximal at intermediate-to-high
// utilization (so load concentrates). A server outside the [Tl, Th]
// utilization band requests a migration with probability f_l (Eq. 3) or f_h
// (Eq. 4).
package ecocloud

import (
	"fmt"
	"math"
)

// AssignProbFunc is the assignment probability function fa of Eq. (1):
//
//	fa(u) = u^p (Ta - u) / Mp   for 0 <= u <= Ta,   0 otherwise,
//
// normalized by Mp (Eq. 2) so the maximum value is 1. Its maximum sits at
// u* = Ta·p/(p+1), so larger p pushes the sweet spot toward Ta and
// intensifies consolidation.
type AssignProbFunc struct {
	Ta float64 // maximum allowed utilization (0 < Ta <= 1)
	P  float64 // shape parameter (p > 0)
	mp float64 // cached normalizer Mp
}

// NewAssignProb builds the assignment function, validating its parameters.
func NewAssignProb(ta, p float64) (AssignProbFunc, error) {
	if !(ta > 0 && ta <= 1) {
		return AssignProbFunc{}, fmt.Errorf("ecocloud: Ta = %v outside (0,1]", ta)
	}
	if !positive(p) {
		return AssignProbFunc{}, fmt.Errorf("ecocloud: p = %v must be positive and finite", p)
	}
	f := AssignProbFunc{Ta: ta, P: p}
	f.mp = f.normalizer()
	return f, nil
}

// normalizer computes Mp = p^p / (p+1)^(p+1) * Ta^(p+1) (Eq. 2), the value
// of u^p(Ta-u) at its maximizer u* = Ta·p/(p+1).
func (f AssignProbFunc) normalizer() float64 {
	p := f.P
	return math.Pow(p, p) / math.Pow(p+1, p+1) * math.Pow(f.Ta, p+1)
}

// Eval returns fa(u). Utilization above Ta (including overload, u > 1)
// yields 0: a loaded server never takes more work.
func (f AssignProbFunc) Eval(u float64) float64 {
	if u < 0 || u > f.Ta {
		return 0
	}
	return math.Pow(u, f.P) * (f.Ta - u) / f.mp
}

// positive reports whether x is a positive finite number. Every range check
// is written so that NaN fails it.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// ArgMax returns the utilization at which fa peaks: Ta·p/(p+1).
func (f AssignProbFunc) ArgMax() float64 { return f.Ta * f.P / (f.P + 1) }

// WithThreshold returns a copy of f with the threshold replaced by ta,
// keeping the shape parameter. The migration procedure uses this to build
// the tightened acceptance function (Ta' = 0.9·u_source) that prevents
// ping-pong migrations from overloaded servers.
func (f AssignProbFunc) WithThreshold(ta float64) (AssignProbFunc, error) {
	return NewAssignProb(ta, f.P)
}

// MigrateLowProb is f_l of Eq. (3): the probability that a server with
// utilization u below Tl requests the migration of one of its VMs,
//
//	f_l(u) = (1 - u/Tl)^alpha   for u < Tl,   0 otherwise.
//
// Smaller alpha makes the function flatter (more eager to drain).
func MigrateLowProb(u, tl, alpha float64) float64 {
	if u >= tl || u < 0 {
		return 0
	}
	return math.Pow(1-u/tl, alpha)
}

// MigrateHighProb is f_h of Eq. (4): the probability that a server with
// utilization u above Th requests the migration of one of its VMs,
//
//	f_h(u) = (1 + (u-1)/(1-Th))^beta   for u > Th,   0 otherwise,
//
// rising from 0 at u = Th to 1 at u = 1. Overload (u > 1) saturates at 1.
func MigrateHighProb(u, th, beta float64) float64 {
	if u <= th {
		return 0
	}
	if u >= 1 {
		return 1
	}
	return math.Pow(1+(u-1)/(1-th), beta)
}
