//! Common vocabulary types for the PIPM multi-host CXL-DSM simulator.
//!
//! This crate defines the identifiers, address arithmetic, simulated-time
//! units, system configuration, and statistics shared by every other crate in
//! the workspace. It has no dependencies and models nothing by itself; it
//! exists so that the substrate crates (`pipm-mem`, `pipm-cache`,
//! `pipm-fabric`, `pipm-coherence`, …) can interoperate without depending on
//! each other.
//!
//! # Example
//!
//! ```
//! use pipm_types::{Addr, HostId, SystemConfig};
//!
//! let cfg = SystemConfig::default();
//! assert_eq!(cfg.hosts, 4);
//!
//! // The shared CXL-DSM region starts at physical address zero.
//! let a = Addr::new(0x1040);
//! assert!(a.is_shared(&cfg));
//! assert_eq!(a.line().index_within_page(), 1);
//!
//! // Private regions are per host.
//! let p = Addr::private(HostId::new(2), 0x40, &cfg);
//! assert!(!p.is_shared(&cfg));
//! assert_eq!(p.home_host(&cfg), Some(HostId::new(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod hash;
pub mod ids;
pub mod scheme;
pub mod stats;
pub mod table;
pub mod time;
pub mod topology;

pub use addr::{Addr, LineAddr, PageNum, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
pub use config::{
    CacheConfig, CoreConfig, CxlConfig, DirectoryConfig, DramConfig, MigrationCostConfig,
    PipmConfig, SystemConfig,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{CoreId, HostId, HostSet};
pub use scheme::SchemeKind;
pub use stats::{AccessClass, CoreStats, FabricStats, MigrationStats, SystemStats};
pub use table::{PageTable, MAX_DENSE_PAGES};
pub use time::{cycles_from_ns, ns_from_cycles, Cycle, CPU_GHZ};
pub use topology::{Attach, SwitchSpec, TopologySpec};
