//! The system under test: three loopback replicas behind one gateway,
//! all in this process, with the libraries' default configurations.

use partree_gateway::{route, Gateway, GatewayConfig, GatewaySnapshot};
use partree_service::metrics::MetricsSnapshot;
use partree_service::{Server, Service, ServiceConfig};
use std::io;
use std::time::Duration;

pub const REPLICAS: usize = 3;

pub struct Fleet {
    pub servers: Vec<Server>,
    pub gateway: Gateway,
}

/// The default service configuration, minus the tier-1 store: the
/// default reads `PARTREE_STORE_DIR`, and the store is out of scope.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        store_dir: None,
        ..ServiceConfig::default()
    }
}

impl Fleet {
    pub fn start() -> io::Result<Fleet> {
        let servers = (0..REPLICAS)
            .map(|_| Server::bind(Service::start(service_config()), "127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let gateway = Gateway::start(GatewayConfig::new(
            servers.iter().map(Server::addr).collect(),
        ));
        Ok(Fleet { servers, gateway })
    }

    /// The replica the gateway sends a request routed on `key` to.
    pub fn home(key: u64) -> usize {
        route::home(key, REPLICAS)
    }

    /// Fleet-wide service counters plus the gateway's.
    pub fn counters(&self) -> Counters {
        Counters {
            replicas: self.servers.iter().map(|s| s.service().metrics()).collect(),
            gateway: self.gateway.snapshot(),
        }
    }

    /// [`Fleet::counters`] once the fleet is quiet: a hedge loser can
    /// still sit in a replica's queue when the client has its answer, so
    /// the counters are read until two reads 20 ms apart agree (for at
    /// most 2 s).
    pub fn settled_counters(&self) -> Counters {
        let mut last = self.counters();
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(20));
            let now = self.counters();
            if now.replicas == last.replicas {
                return now;
            }
            last = now;
        }
        last
    }

    pub fn shutdown(self) {
        self.gateway.shutdown();
        for s in self.servers {
            // A shutdown error only means a connection thread panicked;
            // the run's own checks have already passed or failed.
            let _ = s.shutdown();
        }
    }
}

pub struct Counters {
    pub replicas: Vec<MetricsSnapshot>,
    pub gateway: GatewaySnapshot,
}

impl Counters {
    /// Sum over replicas of one service counter.
    pub fn sum(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        self.replicas.iter().map(f).sum()
    }

    /// A process-wide counter (the executor's): every replica reports
    /// the same global value, so read it once.
    pub fn global(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        self.replicas.first().map_or(0, f)
    }
}
