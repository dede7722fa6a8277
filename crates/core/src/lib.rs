//! The Sybil-resistant truth discovery framework (the paper's
//! contribution, §IV).
//!
//! Plain truth discovery assumes most sources are reliable; a Sybil
//! attacker breaks that assumption by holding the majority of accounts for
//! a task, dragging the weighted aggregate wherever it wants (Table I).
//! This framework restores accuracy by working at *group* granularity:
//!
//! 1. **Account grouping** — partition accounts into groups likely owned by
//!    the same physical user, using one of three methods:
//!    [`AgFp`] (device fingerprints + k-means/elbow, defeats Attack-I),
//!    [`AgTs`] (task-set affinity + connected components, Eq. 6),
//!    [`AgTr`] (task/timestamp trajectory DTW + connected components,
//!    Eqs. 7–8; defeats Attack-II).
//! 2. **Data grouping** — per task, aggregate each group's reports to a
//!    single value (Eq. 3) and seed group weights by relative group size
//!    (Eq. 4).
//! 3. **Group-level truth discovery** — initialize truths by Eq. 5, then
//!    iterate CRH-style weight/truth updates over groups instead of
//!    accounts (Algorithm 2), so a thousand Sybil accounts still count as
//!    one voice.
//!
//! # Examples
//!
//! ```
//! use srtd_core::{AccountGrouping, AgTr, SybilResistantTd};
//! use srtd_truth::SensingData;
//!
//! // Two honest accounts on their own walks, and three Sybil accounts
//! // replaying one walk half a minute apart.
//! let mut data = SensingData::new(3);
//! for (task, value, ts) in [(0, -80.0, 10.0), (1, -70.0, 400.0), (2, -85.0, 800.0)] {
//!     data.add_report(0, task, value, ts);           // honest, morning
//!     data.add_report(1, task, value - 1.0, ts + 7000.0); // honest, later
//! }
//! for (acct, offset) in [(2, 0.0), (3, 32.0), (4, 65.0)] {
//!     data.add_report(acct, 0, -50.0, 100.0 + offset);
//!     data.add_report(acct, 1, -50.0, 700.0 + offset);
//! }
//! let framework = SybilResistantTd::new(AgTr::default());
//! let result = framework.discover(&data, &[]);
//! // The Sybil trio is one group: its -50s count once, honest data wins.
//! assert_eq!(result.grouping.len(), 3);
//! assert!(result.truths[0].unwrap() < -65.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod framework;
pub mod grouping;

pub use aggregate::GroupAggregation;
pub use framework::{FrameworkConfig, FrameworkResult, SybilResistantTd};
pub use grouping::{
    AccountGrouping, AgFp, AgTr, AgTs, AgVal, CombineMode, CombinedGrouping, EdgeGrouping,
    EdgeIndex, FpClustering, Grouping, PerfectGrouping, SingletonGrouping,
};
