//! Sharded multi-replica GCN serving: the cluster tier above `serve`.
//!
//! One simulated machine serves one model well (`mggcn-serve`); this crate
//! scales that out the way production GNN inference does — by putting a
//! routing front end over `P` shard replicas and making overload a
//! designed-for state instead of a failure mode:
//!
//! * **routing** ([`ring`], [`Router`]): a consistent-hash ring (SplitMix64,
//!   virtual nodes) with proptest-verified balance and minimal-remapping
//!   properties, overridden per-vertex by a partition plan when one is
//!   installed;
//! * **cache-aware partitioning** ([`partition`]): balance-capped label
//!   propagation over the CSR adjacency homes each vertex with its k-hop
//!   neighborhood, scored by the exact §5.1 byte accounting
//!   (`comm::analysis`) as cross-shard fan-out bytes — measurably below a
//!   random partition on community graphs;
//! * **admission control + load shedding** ([`admission`]): bounded queue
//!   delay and bounded inflight per shard; everything over the bound is
//!   shed to a **degraded** answer (the shard's cached layer-0 aggregation
//!   row through the dense tail — deterministic, tagged, fixed cost) so the
//!   admitted-request p99 SLO holds by construction and nothing ever waits
//!   unboundedly;
//! * **cluster-wide accounting** ([`report`]): per-shard and merged latency
//!   quantiles and shed counters;
//! * **the overload study** ([`overload`]): calibrate capacity, overload the
//!   cluster under bounded admission, and return the four verdicts that
//!   `mggcn cluster-bench` prints and `tests/overload.rs` asserts.
//!
//! Admitted answers are bit-identical to the single-replica oracle
//! ([`mggcn_serve::ServingModel::forward_full`]) for any shard count —
//! asserted by the testkit differential suite.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cluster;
pub mod overload;
pub mod partition;
pub mod report;
pub mod ring;

pub use admission::{AdmissionPolicy, ShedReason, Verdict};
pub use cluster::{Answer, Cluster, ClusterConfig, ClusterOutcome, Router, DEGRADED_COST};
pub use overload::{overload_study, OverloadSpec, OverloadStudy, OverloadVerdicts};
pub use partition::PartitionPlan;
pub use report::{ClusterReport, ShardReport, BENCH_CLUSTER_SCHEMA};
pub use ring::{splitmix64, HashRing};
