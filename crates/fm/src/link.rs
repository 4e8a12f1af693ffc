//! [`ManagerLink`]: how every client in the stack calls its manager.
//!
//! The NFS, AFS and Cheops clients all talk to a manager service the
//! same way — under one [`CallOptions`], with a timed-out exchange
//! reading as [`FmError::Unavailable`] and a dead manager as
//! [`FmError::Transport`]. That policy lives here once, bootstrap calls
//! (`GetRoot`, `Register`) included.

use crate::handle::FmError;
use nasd_net::{CallOptions, Channel, RetryPolicy, RpcError};

/// A client's call policy towards its manager: the [`CallOptions`] every
/// manager exchange runs under, and the mapping from transport failures
/// to [`FmError`].
#[derive(Debug, Clone)]
pub struct ManagerLink {
    opts: CallOptions,
}

impl Default for ManagerLink {
    /// Retry per [`RetryPolicy::control`], no stats attached.
    fn default() -> Self {
        ManagerLink {
            opts: CallOptions::retry(RetryPolicy::control()),
        }
    }
}

impl ManagerLink {
    /// Replace the retry policy (any attached call stats are kept).
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        let stats = self.opts.stats.take();
        self.opts = CallOptions::retry(policy);
        self.opts.stats = stats;
    }

    /// Replace the full call options (policy, per-attempt timeout and
    /// stats) in one shot.
    pub fn set_call_options(&mut self, opts: CallOptions) {
        self.opts = opts;
    }

    /// Call `manager` per the link's [`CallOptions`].
    ///
    /// # Errors
    ///
    /// [`FmError::Unavailable`] when every attempt timed out;
    /// [`FmError::Transport`] on disconnection — a manager, unlike a
    /// drive, does not restart, so that fails fast.
    pub fn call<Req, Resp>(&self, manager: &Channel<Req, Resp>, req: Req) -> Result<Resp, FmError>
    where
        Req: Send + Clone + 'static,
        Resp: Send + 'static,
    {
        match manager.call_with(req, &self.opts) {
            Ok(resp) => Ok(resp),
            Err(RpcError::TimedOut) => Err(FmError::Unavailable {
                attempts: self.opts.policy.max_attempts.max(1),
            }),
            Err(RpcError::Disconnected) => Err(FmError::Transport),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_net::spawn_service;
    use nasd_obs::Registry;

    #[test]
    fn set_retry_keeps_attached_stats() {
        let registry = Registry::new();
        let (rpc, _h) = spawn_service(|x: u64| x);
        let mut link = ManagerLink::default();
        link.set_call_options(CallOptions::blocking().with_registry(&registry, "mgr"));
        link.set_retry(RetryPolicy::control());
        link.call(&Channel::in_proc(rpc), 7).unwrap();
        assert_eq!(registry.counter("mgr/calls").value(), 1);
    }
}
