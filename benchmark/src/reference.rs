//! The reference a multi-tenant workload's output is checked against: a
//! standalone `Spot` per tenant, fed the very stream the system was fed
//! (regenerated from the seed) through `process_batch`.

use crate::stats::{Confusion, VerdictDigest};
use crate::workload::{TenantStream, Workload, CHUNK};

pub struct Reference {
    /// Digest over the first `main_points` verdicts.
    pub main: VerdictDigest,
    /// Digest over the `tail_points` after them.
    pub tail: VerdictDigest,
    /// The system's own flags (not the reference's) against the planted
    /// labels of the main stretch.
    pub confusion: Confusion,
    /// `SpotStats::processed` of the reference after the main stretch.
    pub processed_after_main: u64,
}

/// Runs tenant `tenant`'s reference. `system_flags` are the outlier flags
/// the system under test emitted for the main stretch, in arrival order.
pub fn reference(
    w: &Workload,
    seed: u64,
    tenant: usize,
    system_flags: &[bool],
    main_points: usize,
    tail_points: usize,
) -> Reference {
    let (mut stream, mut spot) = TenantStream::with_learned_spot(w, seed, tenant);
    let mut out = Reference {
        main: VerdictDigest::default(),
        tail: VerdictDigest::default(),
        confusion: Confusion::default(),
        processed_after_main: 0,
    };
    let mut fed = 0usize;
    while fed < main_points {
        let block = stream.block((main_points - fed).min(32 * CHUNK));
        for chunk in block.points.chunks(CHUNK) {
            let verdicts = spot
                .process_batch(chunk)
                .expect("generated points are well-formed");
            out.main.update_all(&verdicts);
        }
        for (i, &planted) in block.planted.iter().enumerate() {
            if let Some(&flagged) = system_flags.get(fed + i) {
                out.confusion.observe(flagged, planted);
            }
        }
        fed += block.points.len();
    }
    out.processed_after_main = spot.stats().processed;
    let block = stream.block(tail_points);
    for chunk in block.points.chunks(CHUNK) {
        let verdicts = spot
            .process_batch(chunk)
            .expect("generated points are well-formed");
        out.tail.update_all(&verdicts);
    }
    out
}

/// References of all tenants, two at a time (the box has two cores).
pub fn references(
    w: &'static Workload,
    seed: u64,
    system_flags: &[Vec<bool>],
    main_points: usize,
    tail_points: usize,
) -> Vec<Reference> {
    let mut out: Vec<Option<Reference>> = (0..w.tenants).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (lane, slots) in out.chunks_mut(w.tenants.div_ceil(2)).enumerate() {
            let first = lane * w.tenants.div_ceil(2);
            scope.spawn(move || {
                for (i, slot) in slots.iter_mut().enumerate() {
                    let t = first + i;
                    *slot = Some(reference(
                        w,
                        seed,
                        t,
                        &system_flags[t],
                        main_points,
                        tail_points,
                    ));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every tenant has a reference"))
        .collect()
}
