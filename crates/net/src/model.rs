//! Protocol CPU costs at an RPC endpoint.

/// CPU cost of the RPC protocol stack at an endpoint.
///
/// The paper blames "workstation-class implementations of communications"
/// (DCE RPC over UDP/IP) for most of the request cost; at the client,
/// receive processing caps goodput. The default constants reproduce §4.3:
/// a 233 MHz AlphaStation receiving over OC-3 saturates near 80 Mb/s
/// (10 MB/s), i.e. the stack burns roughly all of one CPU at that rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RpcCostModel {
    /// Fixed instructions per message (marshalling, syscalls, interrupts).
    pub per_message: f64,
    /// Instructions per payload byte (checksums + copies).
    pub per_byte: f64,
}

impl RpcCostModel {
    /// The heavyweight DCE-RPC-class stack of the prototype.
    #[must_use]
    pub fn dce_rpc() -> Self {
        RpcCostModel {
            per_message: 35_000.0,
            per_byte: 10.0,
        }
    }

    /// A leaner stack ("commodity NASD drives must have a less costly RPC
    /// mechanism") for sensitivity studies.
    #[must_use]
    pub fn lean() -> Self {
        RpcCostModel {
            per_message: 5_000.0,
            per_byte: 1.0,
        }
    }

    /// Instructions to process one message of `bytes` payload.
    #[must_use]
    pub fn instructions(&self, bytes: u64) -> u64 {
        (self.per_message + self.per_byte * bytes as f64).round() as u64
    }

    /// Goodput ceiling in MB/s for a CPU of `mhz` MHz at `cpi` cycles per
    /// instruction spending all its time in the stack, at message size
    /// `bytes`.
    #[must_use]
    pub fn saturation_mb_s(&self, mhz: f64, cpi: f64, bytes: u64) -> f64 {
        let instr_per_sec = mhz * 1e6 / cpi;
        let instr_per_msg = self.instructions(bytes) as f64;
        instr_per_sec / instr_per_msg * bytes as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dce_rpc_saturates_near_80_mbits() {
        // §4.3: DCE RPC over OC-3 saturates the receiving client near
        // 80 Mb/s. AlphaStation 255: 233 MHz, CPI ~2.2, 512 KB messages.
        let mb_s = RpcCostModel::dce_rpc().saturation_mb_s(233.0, 2.2, 512 * 1024);
        let mbits = mb_s * 8.0;
        assert!(
            (70.0..95.0).contains(&mbits),
            "DCE RPC saturation at {mbits:.1} Mb/s"
        );
    }

    #[test]
    fn lean_stack_is_much_cheaper() {
        let dce = RpcCostModel::dce_rpc().instructions(65_536);
        let lean = RpcCostModel::lean().instructions(65_536);
        assert!(lean * 5 < dce);
    }
}
