//! Integration: the shared failover battery (`common/mod.rs`) with a
//! mixed load — every second request a decode — so both request kinds
//! cross the gateway's RPC reactor and the replicas' epoll reactors
//! while one replica is slowed and another killed mid-load. Encodes
//! must come back byte-identical to a direct service run and decodes
//! must return the original payload.

mod common;

#[test]
fn reactor_failover_under_load_stays_bit_identical() {
    let snap = common::failover_battery(true);
    assert!(
        snap.hedges_issued > 0,
        "slow replica produced no hedges: {snap:?}"
    );
}
