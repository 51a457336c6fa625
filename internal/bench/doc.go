// Package bench is the experiment harness that regenerates every
// experiment table of the reproduction (EXP-A … EXP-W; see DESIGN.md
// §2 for the experiment ↔ paper-claim index).
//
// Each experiment is a Table generator; cmd/lwcbench renders them,
// and EXPERIMENTS.md records one run. Benchmarks proper (testing.B)
// live in the repository root's bench_test.go and exercise the same
// code paths.
package bench
