// Package obs is the speculation-lifecycle observability layer: a
// low-overhead structured event tracer plus derived metrics for the
// Privateer runtime.
//
// The paper's evaluation (section 6) attributes runtime cost to individual
// speculation events — worker spawns, privacy checks, checkpoint merges,
// misspeculation, recovery. The runtime emits those events as typed Event
// values through a Tracer; with no tracer attached every instrumentation
// site is a single nil check. Events flow into a Sink — usually the
// ring-buffered Collector — and can be exported as a Chrome trace_event
// JSON file (chrometrace.go) or folded into per-invocation metrics
// (metrics.go).
//
// Emission is safe from any goroutine: the runtime's workers trace
// concurrently with each other and with the service's job goroutines. Events from one goroutine are ordered;
// events from different goroutines interleave by arrival, so consumers
// that need a deterministic sequence must filter to kinds emitted by a
// single logical thread (see specrt's golden-sequence tests).
//
// The package deliberately imports nothing from the rest of the repository
// so every layer (vm, doall, specrt, bench) can emit into it without
// dependency cycles.
package obs
