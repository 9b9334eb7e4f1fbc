package core

import "sync"

// breaker is the engine's circuit breaker over cluster-level fault errors
// (torn rounds, failed computes — the errors the retry policy already
// fought and lost). It is deliberately clock-free, so seeded fault tests
// drive every transition deterministically: instead of an open-interval
// timer, an open breaker admits exactly one probe execution at a time
// (half-open); the probe's success closes the circuit, its failure keeps
// it open until the next probe. Everything else fails fast with
// ErrCircuitOpen.
//
// Only fault-typed failures count against the threshold; validation
// errors, context cancellations, and admission sheds are neutral — they
// say nothing about cluster health.
type breaker struct {
	mu        sync.Mutex
	threshold int

	consecutive int  // consecutive fault-typed failures
	open        bool // tripped: shed until a probe succeeds
	probing     bool // a half-open probe is in flight

	successes uint64
	failures  uint64
	trips     uint64
	probes    uint64
	fastFails uint64
}

// admit decides whether an execution may proceed. It returns probe=true
// when the execution is the single half-open probe of an open circuit; the
// caller must pass the same flag to done. err is ErrCircuitOpen when the
// execution is shed.
func (b *breaker) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return false, nil
	}
	if b.probing {
		b.fastFails++
		return false, ErrCircuitOpen
	}
	b.probing = true
	b.probes++
	return true, nil
}

// breakerOutcome classifies one admitted execution for the breaker.
type breakerOutcome int

const (
	// breakerOK: the execution completed without error.
	breakerOK breakerOutcome = iota
	// breakerFault: the execution surfaced a cluster-level fault error.
	breakerFault
	// breakerNeutral: the execution failed for reasons unrelated to
	// cluster health (validation, cancellation).
	breakerNeutral
)

// done records an admitted execution's outcome. probe must be admit's
// return value for the same execution.
func (b *breaker) done(probe bool, outcome breakerOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch outcome {
	case breakerOK:
		b.successes++
		b.consecutive = 0
		b.open = false
	case breakerFault:
		b.failures++
		b.consecutive++
		if !b.open && b.consecutive >= b.threshold {
			b.open = true
			b.trips++
		}
	case breakerNeutral:
		// Says nothing about cluster health: a probe slot is released (the
		// next caller probes instead), the failure streak is untouched.
	}
}

// HealthStats is a snapshot of the engine's circuit-breaker state
// (Engine.HealthStats, surfaced as Session.HealthStats). All counters are
// cumulative since the engine was built.
type HealthStats struct {
	// State is "disabled" (no Config.BreakerThreshold), "closed" (normal
	// service), "half-open" (a probe execution is in flight), or "open"
	// (callers are shed with ErrCircuitOpen until a probe succeeds).
	State string
	// ConsecutiveFailures is the current run of fault-typed failures;
	// reaching Config.BreakerThreshold trips the breaker.
	ConsecutiveFailures int
	// Successes/Failures count admitted executions by outcome (neutral
	// outcomes — validation errors, cancellations — count in neither).
	Successes uint64
	Failures  uint64
	// Trips counts closed→open transitions, Probes the half-open probe
	// executions admitted, FastFails the calls shed with ErrCircuitOpen.
	Trips     uint64
	Probes    uint64
	FastFails uint64
}

// HealthStats reports the engine's circuit-breaker state. Engines without
// a breaker (Config.BreakerThreshold zero) report State "disabled" and
// zero counters.
func (e *Engine) HealthStats() HealthStats {
	b := e.breaker
	if b == nil {
		return HealthStats{State: "disabled"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	state := "closed"
	if b.open {
		state = "open"
		if b.probing {
			state = "half-open"
		}
	}
	return HealthStats{
		State:               state,
		ConsecutiveFailures: b.consecutive,
		Successes:           b.successes,
		Failures:            b.failures,
		Trips:               b.trips,
		Probes:              b.probes,
		FastFails:           b.fastFails,
	}
}
