//! One-call assembly of a complete NASD PFS installation: drives, Cheops
//! manager, file manager, and per-node clients — the Figure 8 stack.

use crate::sio::PfsClient;
use nasd_cheops::{CheopsConnect, CheopsManager, CheopsRequest, CheopsResponse};
use nasd_fm::{DriveFleet, FmConnect, FmError, NasdNfs, NfsClient};
use nasd_net::{Connector, Rpc, ServiceHandle};
use nasd_object::DriveConfig;
use nasd_proto::PartitionId;
use std::sync::Arc;

/// A running PFS installation.
pub struct PfsCluster {
    fleet: Arc<DriveFleet>,
    cheops: Rpc<CheopsRequest, CheopsResponse>,
    /// The file manager whose directories hold the PFS names; every
    /// node's client shares this one attachment.
    names: Arc<NfsClient>,
    stripe_unit: u64,
    _handles: Vec<ServiceHandle>,
}

impl PfsCluster {
    /// Spawn `ndrives` memory-backed drives plus the managers, with the
    /// given stripe unit (the paper used 512 KB for the mining runs).
    ///
    /// # Errors
    ///
    /// Drive bootstrap failures.
    pub fn spawn(ndrives: usize, stripe_unit: u64) -> Result<Self, FmError> {
        Self::spawn_with_config(ndrives, stripe_unit, DriveConfig::prototype())
    }

    /// Spawn with a custom drive configuration.
    ///
    /// # Errors
    ///
    /// Drive bootstrap failures.
    pub fn spawn_with_config(
        ndrives: usize,
        stripe_unit: u64,
        config: DriveConfig,
    ) -> Result<Self, FmError> {
        let fleet = Arc::new(DriveFleet::spawn_memory(
            ndrives,
            config,
            PartitionId(1),
            1 << 32,
        )?);
        let (cheops, h1) = CheopsManager::new(Arc::clone(&fleet)).spawn();
        let (fm, h2) = NasdNfs::new(Arc::clone(&fleet))?.spawn();
        let names = Arc::new(Connector::new().nfs(fm, Arc::clone(&fleet))?);
        Ok(PfsCluster {
            fleet,
            cheops,
            names,
            stripe_unit,
            _handles: vec![h1, h2],
        })
    }

    /// Number of drives.
    #[must_use]
    pub fn ndrives(&self) -> usize {
        self.fleet.len()
    }

    /// The drive fleet.
    #[must_use]
    pub fn fleet(&self) -> &Arc<DriveFleet> {
        &self.fleet
    }

    /// The configured stripe unit.
    #[must_use]
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// A client for compute node `node` (clients are cheap; one per
    /// thread).
    #[must_use]
    pub fn client(&self, node: u64) -> PfsClient {
        let connector = Connector::new();
        let storage = connector.cheops(node, self.cheops.clone(), Arc::clone(&self.fleet));
        PfsClient::new(Arc::clone(&self.names), storage, self.stripe_unit)
    }
}

impl std::fmt::Debug for PfsCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsCluster")
            .field("ndrives", &self.fleet.len())
            .field("stripe_unit", &self.stripe_unit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> PfsCluster {
        PfsCluster::spawn_with_config(n, 64 * 1024, DriveConfig::small()).unwrap()
    }

    #[test]
    fn create_open_read_write() {
        let c = cluster(4);
        let client = c.client(0);
        let f = client.create("/data", 4).unwrap();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        client.write_at(&f, 0, &data).unwrap();
        let back = client.read_at(&f, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
        assert_eq!(client.size(&f).unwrap(), data.len() as u64);
        assert_eq!(f.width(), 4);
        assert_eq!(f.stripe_unit(), 64 * 1024);
    }

    #[test]
    fn parallel_nodes_share_a_file() {
        // The Figure 9 access pattern in miniature: every node writes its
        // own round-robin chunks, then every node reads chunks written by
        // others.
        let c = Arc::new(cluster(4));
        let writer = c.client(0);
        let _ = writer.create("/shared", 4).unwrap();
        let chunk = 64 * 1024u64;
        let nodes = 4u64;

        let mut joins = Vec::new();
        for node in 0..nodes {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let client = c.client(node);
                let f = client.open("/shared").unwrap();
                // Write chunks node, node+4, node+8, ...
                for k in (node..16).step_by(nodes as usize) {
                    let data = vec![k as u8; chunk as usize];
                    client.write_at(&f, k * chunk, &data).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }

        // Cross-check: every chunk readable by a different node.
        let mut joins = Vec::new();
        for node in 0..nodes {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let client = c.client(100 + node);
                let f = client.open("/shared").unwrap();
                for k in ((node + 1) % nodes..16).step_by(nodes as usize) {
                    let back = client.read_at(&f, k * chunk, chunk).unwrap();
                    assert!(back.to_vec().iter().all(|&b| b == k as u8), "chunk {k}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn namespace_operations() {
        let c = cluster(2);
        let client = c.client(0);
        client.create("/a", 2).unwrap();
        client.create("/b", 1).unwrap();
        assert!(matches!(
            client.create("/a", 2),
            Err(crate::PfsError::Exists(_))
        ));
        assert_eq!(client.list("/").unwrap().len(), 2);
        client.unlink("/a").unwrap();
        assert!(matches!(
            client.open("/a"),
            Err(crate::PfsError::NotFound(_))
        ));
        assert_eq!(client.list("/").unwrap(), vec!["/b".to_string()]);
    }

    #[test]
    fn read_list_gathers_extents() {
        let c = cluster(2);
        let client = c.client(0);
        let f = client.create("/l", 2).unwrap();
        client.write_at(&f, 0, &vec![7u8; 200_000]).unwrap();
        let parts = client
            .read_list(&f, &[(0, 1000), (100_000, 1000), (199_000, 1000)])
            .unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1000));
        assert!(parts.iter().all(|p| p.to_vec().iter().all(|&b| b == 7)));
    }

    #[test]
    fn names_are_directory_entries() {
        let c = cluster(2);
        let client = c.client(0);
        client.create("/a", 2).unwrap();
        // The file manager's own client sees the name as a regular file
        // whose data is the logical object's id.
        let names: Vec<String> = c
            .names
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a"]);
        let mut name = c.names.open("/a", false).unwrap();
        let id = client.open("/a").unwrap().id;
        assert_eq!(
            c.names.read(&mut name, 0, 64).unwrap(),
            id.0.to_be_bytes()[..]
        );
    }

    #[test]
    fn racing_creates_bind_one_name() {
        let c = cluster(2);
        let start = std::sync::Barrier::new(2);
        let results: Vec<_> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|node| {
                    let (c, start) = (&c, &start);
                    s.spawn(move || {
                        let client = c.client(node);
                        start.wait();
                        client.create("/same", 1).map(|f| f.id)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let won: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        assert_eq!(won.len(), 1, "{results:?}");
        assert!(
            results.contains(&Err(crate::PfsError::Exists("/same".into()))),
            "{results:?}"
        );
        // The loser destroyed the logical object it could not bind.
        let listed = c
            .cheops
            .call_with(CheopsRequest::List, &nasd_net::CallOptions::blocking())
            .unwrap();
        match listed {
            CheopsResponse::Objects(ids) => assert_eq!(&ids.iter().collect::<Vec<_>>(), &won),
            other => panic!("unexpected {other:?}"),
        }
    }
}
