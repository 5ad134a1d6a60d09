//! MPI application simulation substrate for the SOMPI reproduction.
//!
//! The paper runs real OpenMPI + BLCR executions of the NAS Parallel
//! Benchmarks and LAMMPS on EC2, profiled with TAU into the 5-tuple
//! `<#instr, Data_send, Data_recv, IO_seq, IO_rnd>` (Section 4.4,
//! "Profiling"), and estimates execution time as the sum of CPU, network and
//! I/O components. This crate rebuilds that pipeline in simulation:
//!
//! * [`profile`] — the TAU-style application profile and communication
//!   patterns,
//! * [`npb`] / [`lammps`] — analytic workload models producing profiles for
//!   BT, SP, LU, FT, IS, BTIO (NPB 2.4 classes S–C) and LAMMPS,
//! * [`cluster`] — mapping `N` processes onto instances of a type and the
//!   paper's CPU+network+I/O execution-time estimator,
//! * [`checkpoint`] — BLCR-style coordinated checkpointing with an
//!   S3-backed store ([`storage`]): per-checkpoint overhead `O_i`, recovery
//!   overhead `R_i` and storage cost,
//! * [`engine`] + [`program`] + [`sim`] — a discrete-event simulator that
//!   actually executes a phase-structured MPI program on a simulated
//!   cluster, supports checkpoint/restart and failure injection, and is
//!   used to validate the analytic estimator.
//!
//! ```
//! use ec2_market::instance::InstanceCatalog;
//! use mpi_sim::cluster::ClusterSpec;
//! use mpi_sim::npb::{NpbClass, NpbKernel};
//!
//! // How long does BT.B on 128 ranks take on a cc2.8xlarge cluster?
//! let catalog = InstanceCatalog::paper_2014();
//! let ty = catalog.by_name("cc2.8xlarge").unwrap();
//! let profile = NpbKernel::Bt.profile(NpbClass::B, 128);
//! let cluster = ClusterSpec::for_processes(&catalog, ty, 128);
//! let t = cluster.estimate(&catalog, &profile);
//! assert!(t.total_hours() > 0.0);
//! assert!(t.comm_fraction() < 0.5); // BT is computation-intensive
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cluster;
pub mod collective;
pub mod engine;
pub mod lammps;
pub mod npb;
pub mod profile;
pub mod program;
pub mod sim;
pub mod storage;

pub use checkpoint::CheckpointSpec;
pub use cluster::{ClusterSpec, TimeBreakdown};
pub use collective::{Collective, CommShape};
pub use lammps::Lammps;
pub use npb::{NpbClass, NpbKernel};
pub use profile::{AppProfile, CommPattern};
pub use program::{Phase, Program};
pub use sim::{SimOutcome, Simulation};
pub use storage::S3Store;

/// Hours, matching `ec2-market`.
pub type Hours = f64;
