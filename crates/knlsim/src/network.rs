//! Interconnect model: Aries dragonfly-flavoured collectives (paper §5.1:
//! Theta uses the Aries interconnect with dragonfly topology).

/// Network parameters for inter-node communication.
#[derive(Clone, Copy, Debug)]
pub struct Network {
    /// Per-hop message latency, seconds.
    pub alpha_s: f64,
    /// Injection bandwidth per node, GB/s.
    pub bandwidth_gbs: f64,
}

impl Default for Network {
    fn default() -> Self {
        // Aries-class numbers: ~1-2 us MPI latency, ~8-10 GB/s injection.
        Network { alpha_s: 1.5e-6, bandwidth_gbs: 8.0 }
    }
}

impl Network {
    /// Allreduce (`gsumf`) of `bytes` over `ranks` ranks spread over
    /// `nodes` nodes: tree latency over the nodes plus a pipelined
    /// reduce-scatter/allgather bandwidth term; on-node combining is
    /// charged at memory speed and is negligible next to the wire.
    pub fn allreduce_s(&self, bytes: f64, ranks: usize, nodes: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let tree_depth = (nodes.max(2) as f64).log2().ceil();
        let latency = 2.0 * tree_depth * self.alpha_s;
        let bw = if nodes > 1 {
            2.0 * bytes / (self.bandwidth_gbs * 1e9)
        } else {
            // Single node: shared-memory reduction at ~50 GB/s effective.
            2.0 * bytes / 50e9
        };
        latency + bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_grows_with_bytes_and_nodes() {
        let n = Network::default();
        let small = n.allreduce_s(1e6, 256, 4);
        let big = n.allreduce_s(1e8, 256, 4);
        assert!(big > small);
        let wide = n.allreduce_s(1e6, 256 * 64, 256);
        assert!(wide > small);
    }

    #[test]
    fn single_rank_is_free() {
        let n = Network::default();
        assert_eq!(n.allreduce_s(1e9, 1, 1), 0.0);
    }

    #[test]
    fn on_node_reduction_beats_off_node() {
        let n = Network::default();
        assert!(n.allreduce_s(1e8, 4, 1) < n.allreduce_s(1e8, 4, 4));
    }
}
