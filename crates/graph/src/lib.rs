//! Connected components by union-find.
//!
//! The account-grouping methods of the Sybil-resistant truth discovery
//! framework (AG-TS, AG-TR and AG-VAL) link accounts whose behaviour is
//! similar enough and take each connected component as one *group* of
//! accounts suspected to belong to the same physical user (step 3 of both
//! grouping methods in the paper). [`UnionFind`] is that step: every
//! method unions its decision edges into one forest and reads the
//! partition off its canonical labels, and the epoch engine keeps one
//! forest alive across epochs, growing it as accounts arrive.
//!
//! # Examples
//!
//! ```
//! use srtd_graph::UnionFind;
//!
//! let mut uf = UnionFind::new(5);
//! uf.union(0, 1);
//! uf.union(1, 2);
//! assert_eq!(uf.set_count(), 3); // {0,1,2}, {3}, {4}
//! assert_eq!(uf.labels(), vec![0, 0, 0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod union_find;

pub use union_find::UnionFind;
