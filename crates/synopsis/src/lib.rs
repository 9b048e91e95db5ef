//! Decaying cell summaries — SPOT's "data synapses".
//!
//! The paper captures the stream in two structures over an equi-width
//! partition of the domain space: a **Base Cell Summary (BCS)** — per base
//! cell (finest granularity, all ϕ dimensions) the decayed point count `D`
//! and the decayed per-dimension linear and squared sums `LS`, `SS` (a
//! CF-vector) — and, derived from it, a **Projected Cell Summary (PCS)**
//! per cell of a subspace `s`: the pair `(RD, IRSD)`, Relative Density and
//! Inverse Relative Standard Deviation.
//!
//! This crate keeps one store kind. `(D, LS, SS)` are additive, so a
//! [`ProjectedStore`] maintains them per projected cell directly — it *is*
//! the BCS table marginalised onto its subspace — and derives `(RD, IRSD)`
//! from them on the touch; no full-space table is kept on the detector
//! path (at high ϕ every point would be its own base cell). A subspace
//! that joins the SST late is warmed by replaying the detector's
//! reservoir sample into its store ([`SynopsisManager::replay_into`]). A
//! full-space store, where one is wanted (the full-space baseline), is a
//! `ProjectedStore` over `Subspace::full(ϕ)`.
//!
//! All summaries decay under the (ω, ε) time model from `spot-stream`,
//! lazily (each cell stores its last-touched tick and is renormalized by
//! `δ^age` when next touched or scanned). [`SynopsisManager`] bundles one
//! projected store per SST subspace and the global decayed weight, and is
//! the single entry point used by the detection engine.
//!
//! # The zero-allocation, screening hot path
//!
//! Cells are addressed by [`CellKey`] — a `Copy` 128-bit packed key (see
//! the `key` module for the bit layout and the wide-ϕ fingerprint
//! fallback). A store finds a key's slot through a flat `u16` table
//! addressed by the key itself when the packed key has at most 10 bits
//! (every 1-d and 2-d subspace at the default granularity of 10), and
//! through a hash map otherwise — decided by the key width alone.
//!
//! The detection path is a *screening* one. Per monitored subspace a point
//! costs one integer-shift projection and one probe that both inserts the
//! point and reports the touched cell as a [`CellTouch`]: its decayed
//! occupancy and its RD. IRSD — divisions and a square root per dimension
//! — is derived only on request ([`ProjectedStore::irsd_of`]), which a
//! detector makes for the rare cell whose RD is under its threshold.
//! [`SynopsisManager::update_and_screen_batch`] is the one ingest loop: it
//! takes a run of points at consecutive ticks — a single point is a run of
//! one — and hands every touch to a [`CellConsumer`] as it happens, store
//! by store (every point of the run into one store, then the next store);
//! no per-(point, subspace) result is stored.
//! [`SynopsisManager::update_and_query`] and
//! [`SynopsisManager::update_and_query_batch`] are full-report consumers
//! of the same loop — every cell's `(RD, IRSD)` pair into caller-reused
//! sinks — for baselines and tools; a PCS is only ever read off a touch,
//! there is no query-only path. Every store runs one touch kernel,
//! [`ProjectedStore::update_and_screen_batch`], which takes a
//! [`PointRun`] and loops over its points inside the store. The kernel is
//! generic over the store's width: one to four dimensions run an instance
//! unrolled to that width, wider and fingerprinted stores one
//! runtime-width instance of the same body, chosen once per call.
//!
//! No path reachable from the loop calls the allocator on the steady state
//! (`tests/allocations.rs` counts it). Every renormalization factor
//! `δ^age` comes from the manager's one age-indexed
//! [`spot_stream::WeightCache`] — 4 096 ages (32 KiB), allocated whole on
//! its first extension, extended to the tick at hand before a run or a
//! prune, read-only inside one, and bit-identical to the model
//! because its entries *are* the model's results. A cell older than the
//! table gets its factor from the model's own `powi`, with the same bits;
//! on the benchmark streams that is under 0.5 % of lookups.
//!
//! A store keeps its cells as a `CellKey → slot` index over parallel
//! key / count / tick / moment columns, with [`PcsCell`] as the borrowed
//! view of one cell — so opening a cell is a push onto each column, and a
//! prune scan reads two contiguous columns and compacts by
//! swap-remove. The loop amortizes the quantization buffers across runs
//! and advances the global weight in closed form.
//!
//! Everything here runs on the caller's thread and holds no
//! synchronization: a manager is one detector's state, and concurrency
//! comes from running independent detectors on independent threads. The
//! footprint ([`SynopsisManager::live_cells`],
//! [`SynopsisManager::approx_bytes`]) is an exact sweep over the stores;
//! a thread that wants it without the manager reads a copy its owner
//! published.

pub mod grid;
pub mod key;
pub mod manager;
pub mod pcs;

pub use grid::Grid;
pub use key::{CellKey, KeyCodec};
pub use manager::{CellConsumer, SubspacePcs, SynopsisManager, UpdateOutcome};
pub use pcs::{CellTouch, Pcs, PcsCell, PointRun, ProjectedStore};
