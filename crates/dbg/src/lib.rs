//! De Bruijn graph construction and traversal — the "k-mer analysis" and
//! "contig generation" stages of the MetaHipMer pipeline (Figure 1 of the
//! paper).
//!
//! The graph is implicit: a map from *canonical* k-mer to its occurrence
//! count and per-side extension votes, split into one hash partition per
//! thread. Contigs are maximal unambiguous paths
//! (unitigs): every step requires a unique, mutually-agreeing extension on
//! both the current and the next vertex, which is how MetaHipMer's UU-graph
//! traversal avoids walking through forks. A walk addresses vertices by
//! their global slot and carries the orientation it sees each one in, so a
//! step probes the map once, for the next vertex. Error k-mers (count below
//! `min_count`, default 2 — "those that occur only once") are dropped before
//! traversal; a two-pass Bloom filter keeps most of them out of the map.

pub mod counts;
pub mod graph;
pub mod traverse;

pub use counts::{count_kmers, KmerCountMap, VertexCounts};
pub use graph::DbgGraph;
pub use traverse::{generate_contigs, Contig};
