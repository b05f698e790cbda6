//! Model-check suite for the gateway breaker and idle pool. Only
//! compiled under `--cfg partree_model`:
//!
//! ```text
//! RUSTFLAGS="--cfg partree_model" cargo test -p partree-gateway --test model
//! ```
#![cfg(partree_model)]

use partree_gateway::model;
use partree_verify::explore;

#[test]
fn breaker_scenarios_are_clean_and_exhaustive() {
    let mut total = 0usize;
    for s in model::scenarios() {
        let report = explore(s.name, s.cfg, s.body);
        assert!(
            report.passed(),
            "{}: unexpected violation {:?}",
            s.name,
            report.violation
        );
        assert!(
            report.complete,
            "{}: DFS cut off after {} executions — raise max_executions or shrink the scenario",
            s.name, report.executions
        );
        // Breaker and pool methods are single coarse mutex sections, so
        // some two-thread scenarios are exhaustively tiny — the floor only
        // guards against a scenario degenerating to fully sequential.
        assert!(
            report.executions > 4,
            "{}: only {} interleavings — scenario has no real concurrency",
            s.name,
            report.executions
        );
        total += report.executions;
    }
    println!("gateway model suite: {total} distinct interleavings across all scenarios");
    assert!(total > 200, "suite shrank to {total} interleavings");
}
