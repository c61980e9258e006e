//! Stable content digests of graphs.
//!
//! [`GraphDigest`] is a 64-bit FNV-1a hash over a graph's *canonical* form:
//! the node count followed by the deduplicated CSR-ordered edge list
//! (`u < v`, sorted by `(u, v)`, parallel edges merged to the minimum
//! weight) that [`crate::GraphBuilder::build`] produces. Because the
//! canonicalization is insertion-order independent, any two builds of the
//! same logical graph — whatever order the edges were added in, however
//! parallel edges were supplied — hash identically (pinned by a proptest in
//! `tests/properties.rs`).
//!
//! The digest is the graph half of the serving layer's content-addressed
//! cache key and doubles as a provenance stamp for `BENCH_*.json` rows.
//!
//! [`splitmix64`] is the workspace's one seed mixer: scenario generation,
//! ablation job seeds, load mixes, fault decisions and the streaming
//! generators all draw from it.
//!
//! # Examples
//!
//! ```
//! use congest_graph::WeightedGraph;
//! let a = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 2, 3)]).unwrap();
//! let b = WeightedGraph::from_edges(3, [(2, 1, 3), (1, 0, 2), (0, 1, 9)]).unwrap();
//! assert_eq!(a.digest(), b.digest()); // order + parallel-edge insensitive
//! assert_eq!(a.digest().to_hex().len(), 16);
//! ```

use crate::graph::WeightedGraph;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 64-bit content hash of a [`WeightedGraph`].
///
/// Equal digests mean byte-identical canonical edge lists; the `Display`
/// form is the fixed-width 16-digit lowercase hex used in cache keys.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GraphDigest(pub u64);

impl GraphDigest {
    /// The digest as fixed-width lowercase hex (16 digits).
    pub fn to_hex(self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for GraphDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One step of the SplitMix64 generator (Steele, Lea and Flood): advances
/// `state` by the golden-ratio increment and returns the mixed output.
///
/// ```
/// use congest_graph::digest::splitmix64;
/// let mut state = 0;
/// assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
/// assert_eq!(state, 0x9e37_79b9_7f4a_7c15);
/// ```
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv_u64(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl WeightedGraph {
    /// The stable FNV-1a content digest of this graph.
    ///
    /// For memory-mapped graphs this returns the digest recorded in the
    /// file header in `O(1)` (the writer computed it from the same
    /// canonical form); otherwise it streams the content in `O(m)`. Use
    /// [`WeightedGraph::recompute_digest`] to force the streaming path —
    /// e.g. [`crate::io`]'s verified open compares the two.
    pub fn digest(&self) -> GraphDigest {
        match self.mapped() {
            Some(m) => GraphDigest(m.header().digest),
            None => self.recompute_digest(),
        }
    }

    /// The digest recomputed from the CSR content, ignoring any cached
    /// header value: streams `n` and every canonical edge triple through
    /// the hash without allocating; `O(m)` time.
    pub fn recompute_digest(&self) -> GraphDigest {
        let mut hash = fnv_u64(FNV_OFFSET, self.n() as u64);
        for e in self.edges() {
            hash = fnv_u64(hash, e.u as u64);
            hash = fnv_u64(hash, e.v as u64);
            hash = fnv_u64(hash, e.w);
        }
        GraphDigest(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn digest_is_deterministic_and_distinguishes_graphs() {
        let a = generators::path(6, 2);
        let b = generators::path(6, 2);
        assert_eq!(a.digest(), b.digest());
        // Different weight → different digest.
        let c = generators::path(6, 3);
        assert_ne!(a.digest(), c.digest());
        // Different topology, same node count → different digest.
        let d = generators::cycle(6, 2);
        assert_ne!(a.digest(), d.digest());
        // Extra isolated node changes the digest even with equal edges.
        let e = WeightedGraph::from_edges(7, a.edges().map(|e| (e.u, e.v, e.w))).unwrap();
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn hex_form_is_fixed_width() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
        let hex = g.digest().to_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{}", g.digest()), hex);
    }

    #[test]
    fn empty_graph_digest_is_stable() {
        let a = WeightedGraph::from_edges(0, []).unwrap();
        let b = WeightedGraph::from_edges(0, []).unwrap();
        assert_eq!(a.digest(), b.digest());
    }
}
