//! Interconnect model: Aries dragonfly-flavoured collectives (paper §5.1:
//! Theta uses the Aries interconnect with dragonfly topology).

/// Per-hop message latency, seconds (Aries-class: ~1-2 us MPI latency).
const ALPHA_S: f64 = 1.5e-6;
/// Injection bandwidth per node, GB/s (Aries-class: ~8-10 GB/s).
const BANDWIDTH_GBS: f64 = 8.0;

/// Allreduce (`gsumf`) of `bytes` over `ranks` ranks spread over
/// `nodes` nodes: tree latency over the nodes plus a pipelined
/// reduce-scatter/allgather bandwidth term; on-node combining is
/// charged at memory speed and is negligible next to the wire.
pub fn allreduce_s(bytes: f64, ranks: usize, nodes: usize) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let tree_depth = (nodes.max(2) as f64).log2().ceil();
    let latency = 2.0 * tree_depth * ALPHA_S;
    let bw = if nodes > 1 {
        2.0 * bytes / (BANDWIDTH_GBS * 1e9)
    } else {
        // Single node: shared-memory reduction at ~50 GB/s effective.
        2.0 * bytes / 50e9
    };
    latency + bw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_grows_with_bytes_and_nodes() {
        let small = allreduce_s(1e6, 256, 4);
        let big = allreduce_s(1e8, 256, 4);
        assert!(big > small);
        let wide = allreduce_s(1e6, 256 * 64, 256);
        assert!(wide > small);
    }

    #[test]
    fn single_rank_is_free() {
        assert_eq!(allreduce_s(1e9, 1, 1), 0.0);
    }

    #[test]
    fn on_node_reduction_beats_off_node() {
        assert!(allreduce_s(1e8, 4, 1) < allreduce_s(1e8, 4, 4));
    }
}
