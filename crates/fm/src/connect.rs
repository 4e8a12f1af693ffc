//! [`FmConnect`]: file-manager terminal methods for the
//! [`Connector`] builder.
//!
//! Mirrors the PR 3 `DriveBuilder` pattern: every client in the stack
//! is obtained from a [`Connector`], never from an ad-hoc constructor —
//! so transport concerns (fault injection, pooling, in-proc vs socket)
//! are decided in exactly one place.
//!
//! ```ignore
//! let fm_rpc = NasdNfs::new(fleet.clone())?.spawn().0;
//! let client = Connector::new().nfs(fm_rpc, fleet)?;
//! ```

use crate::afs::{AfsClient, AfsRequest, AfsResponse};
use crate::drives::DriveFleet;
use crate::handle::FmError;
use crate::nfs::{NfsClient, NfsRequest, NfsResponse};
use nasd_net::{Connector, Rpc};
use std::sync::Arc;

/// Build file-manager clients from a [`Connector`]. The manager side
/// stays an in-process service (manager RPCs have no wire
/// codec); the connector contributes the transport policy — fault
/// injection applies to the manager channel exactly as it does to
/// drive channels.
pub trait FmConnect {
    /// Connect an NFS-style client: fetches the root handle from the
    /// manager over the built channel.
    ///
    /// # Errors
    ///
    /// Transport failures or a manager error.
    fn nfs(
        &self,
        fm: Rpc<NfsRequest, NfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError>;

    /// [`Self::nfs`] over the first of `fms` (handles to one manager, as
    /// [`NasdNfs::spawn_sharded`](crate::NasdNfs::spawn_sharded) returns
    /// them), with the client-side capability-issue cache enabled so
    /// repeated opens skip the manager. Kept only because the repository
    /// benchmark still calls it; new code calls [`Self::nfs`] and
    /// [`NfsClient::enable_cap_cache`].
    ///
    /// # Errors
    ///
    /// Transport failures, a manager error, or an empty list.
    fn nfs_sharded(
        &self,
        fms: Vec<Rpc<NfsRequest, NfsResponse>>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError>;

    /// Connect AFS-style client `id`: registers the callback channel
    /// and fetches the root.
    ///
    /// # Errors
    ///
    /// Transport failures or a manager error.
    fn afs(
        &self,
        id: u64,
        fm: Rpc<AfsRequest, AfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<AfsClient, FmError>;
}

impl FmConnect for Connector {
    fn nfs(
        &self,
        fm: Rpc<NfsRequest, NfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError> {
        NfsClient::attach(self.in_proc(fm), fleet)
    }

    fn nfs_sharded(
        &self,
        fms: Vec<Rpc<NfsRequest, NfsResponse>>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError> {
        let fm = fms.into_iter().next().ok_or(FmError::Transport)?;
        let mut client = self.nfs(fm, fleet)?;
        client.enable_cap_cache(None);
        Ok(client)
    }

    fn afs(
        &self,
        id: u64,
        fm: Rpc<AfsRequest, AfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<AfsClient, FmError> {
        AfsClient::attach(id, self.in_proc(fm), fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NasdAfs, NasdNfs};
    use nasd_net::{FaultConfig, FaultPlan, ServiceHandle};
    use nasd_object::DriveConfig;
    use nasd_proto::PartitionId;

    #[test]
    fn timed_out_bootstrap_reads_as_unavailable() {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(1, DriveConfig::small(), PartitionId(1), 16 << 20).unwrap(),
        );
        let drop_all = FaultConfig {
            drop: 1.0,
            ..FaultConfig::none()
        };
        let lossy = Connector::new().faults(FaultPlan::new(1).channel(9, drop_all));
        // The very first manager exchange (`GetRoot` / `Register`) times
        // out on every attempt: same error as any later call would give.
        let (nfs, _h) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn();
        assert!(matches!(
            lossy.nfs(nfs, Arc::clone(&fleet)),
            Err(FmError::Unavailable { attempts: 3 })
        ));
        let (afs, _h) = NasdAfs::new(Arc::clone(&fleet), 1 << 20).unwrap().spawn();
        assert!(matches!(
            lossy.afs(1, afs, fleet),
            Err(FmError::Unavailable { attempts: 3 })
        ));
    }

    #[test]
    fn nfs_sharded_is_a_cached_client_of_one_manager() {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(2, DriveConfig::small(), PartitionId(1), 16 << 20).unwrap(),
        );
        let connector = Connector::new();
        for n in [1, 3] {
            let (rpcs, handles) = NasdNfs::new(Arc::clone(&fleet)).unwrap().spawn_sharded(n);
            assert_eq!((rpcs.len(), handles.len()), (n, 1));
            let last = rpcs.last().cloned().unwrap();
            let client = connector.nfs_sharded(rpcs, Arc::clone(&fleet)).unwrap();
            client.create("/f", 0o644, 0).unwrap();
            client.open("/f", false).unwrap();
            client.open("/f", false).unwrap();
            assert_eq!(client.cap_cache_stats().hits, 1, "{n} handles");
            // Every handle reaches the one manager, and its one handle
            // stops them all.
            let other = connector.nfs(last, Arc::clone(&fleet)).unwrap();
            let f = client.open("/f", false).unwrap().fh;
            assert_eq!(other.open("/f", false).unwrap().fh, f);
            handles.into_iter().for_each(ServiceHandle::shutdown);
            assert!(matches!(other.readdir("/"), Err(FmError::Transport)));
        }
        assert!(matches!(
            connector.nfs_sharded(Vec::new(), fleet),
            Err(FmError::Transport)
        ));
    }
}
