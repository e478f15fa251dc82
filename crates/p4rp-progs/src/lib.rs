//! # p4rp-progs — the 15 example programs of Table 1
//!
//! * [`sources`] — canonical P4runpro sources, parameterized on the
//!   elastic configuration (cached keys, DIPs, routes) and memory sizes;
//! * [`catalog`] — the Table 1 rows, with the paper's P4-LoC and
//!   prior-system comparison data;
//! * [`workloads`] — unique-instance generators for the §6.2 deployment
//!   experiments (cache / lb / hh / nc / mix / all-mixed).

mod catalog;
pub mod sources;
pub mod workloads;

pub use catalog::{all as catalog_all, PriorSystem};
pub use workloads::{instance, instance_filter, Family, Workload, WorkloadParams};
