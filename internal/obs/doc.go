// Package obs is the deterministic observability layer: it turns the
// flat trace.Event stream and the metrics registries into artifacts a
// human (or a dashboard) can consume without giving up the repo's
// replay contract.
//
// Three export surfaces:
//
//   - Span derivation (span.go): pairs begin/end trace events into
//     lifecycle spans — non-preemptible sections, vCPU residency, core
//     lends, hardware-probe reclaim windows, softirq latency, IPI
//     flight, packet lifetimes, and the request/attempt state machine
//     of internal/cluster. Span IDs are positions in the canonically
//     sorted span list, so the same trace always yields the same IDs.
//   - Chrome trace-event JSON (chrome.go): spans as "X" complete
//     events and unpaired markers as "i" instants, loadable in
//     Perfetto / chrome://tracing. The JSON is hand-assembled with a
//     fixed field order and integer-math timestamps, so a given trace
//     renders byte-identically on every run and worker count.
//   - Metrics snapshots (snapshot.go): metrics.Registry / Group /
//     Histogram state as Prometheus text exposition or JSON.
//
// Everything here is a pure function of already-recorded state: obs
// never schedules events, draws randomness, or reads clocks, so
// attaching it cannot perturb a simulation. OBSERVABILITY.md documents
// the schemas.
package obs
