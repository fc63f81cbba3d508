//! De Bruijn graph construction and traversal — the "k-mer analysis" and
//! "contig generation" stages of the MetaHipMer pipeline (Figure 1 of the
//! paper).
//!
//! The graph is implicit: a map from *canonical* k-mer to its occurrence
//! count and per-side extension votes, split into one hash partition per
//! thread. Contigs are maximal unambiguous paths
//! (unitigs): every step requires a unique, mutually-agreeing extension on
//! both the current and the next vertex, which is how MetaHipMer's UU-graph
//! traversal avoids walking through forks. Error k-mers (count below
//! `min_count`, default 2 — "those that occur only once") are dropped before
//! traversal; a two-pass Bloom filter keeps most of them out of the map.

pub mod counts;
pub mod graph;
pub mod stats;
pub mod traverse;

pub use counts::{count_kmers, KmerCountMap, VertexCounts};
pub use graph::DbgGraph;
pub use stats::{graph_stats, GraphStats};
pub use traverse::{generate_contigs, Contig};
