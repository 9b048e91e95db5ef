//! What the synopsis hot paths ask of the allocator, counted.
//!
//! A counting global allocator (std only) tallies every allocation and
//! reallocation made on the calling thread. The counters are thread-local
//! and `const`-initialized, so they never allocate themselves and tests
//! running in parallel do not see each other's allocations.

use spot_stream::{TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_synopsis::{CellConsumer, CellTouch, Grid, ProjectedStore, SynopsisManager};
use spot_types::{DataPoint, DomainBounds};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator can run while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only `Cell`s in `const`-initialized thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns the (allocations, bytes) it made on this thread;
/// a reallocation counts as one allocation of its new size.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

#[test]
fn weight_cache_allocates_once_and_stops_at_32_kib() {
    let tm = TimeModel::new(6000, 0.05).unwrap();
    let mut wc = WeightCache::new(tm);
    let (allocations, bytes) = counted(|| {
        for now in 0..70_000u64 {
            wc.ensure(now + 1);
        }
    });
    assert_eq!(wc.len(), WeightCache::MAX_AGES);
    assert_eq!(allocations, 1, "the table grew in {allocations} steps");
    assert!(bytes <= 32 * 1024, "the table took {bytes} B");
}

/// Common cells get visited every few ticks; one corner cell per store only
/// every `RARE_EVERY` ticks, so its age is past the table's cap each time
/// and its factor comes from the model's fallback.
const RARE_EVERY: u64 = 4500;
const PROTOTYPES: u64 = 40;
const DIMS: usize = 6;

fn point_at(tick: u64) -> DataPoint {
    if tick.is_multiple_of(RARE_EVERY) {
        return DataPoint::new(vec![0.999; DIMS]);
    }
    // A fixed, deterministic prototype set, kept off the corner cell.
    let mut state = (tick % PROTOTYPES + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let values = (0..DIMS)
        .map(|_| {
            state ^= state >> 29;
            state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 0.8
        })
        .collect();
    DataPoint::new(values)
}

/// A manager over one store of each kernel instance: unrolled widths 1–4
/// (dense and hashed indexes) and the runtime-width instance.
fn manager() -> SynopsisManager {
    let grid = Grid::new(DomainBounds::unit(DIMS), 6).unwrap();
    let mut mgr = SynopsisManager::new(grid, TimeModel::new(6000, 0.05).unwrap());
    for dims in [
        &[0][..],
        &[1, 2],
        &[0, 3, 5],
        &[1, 2, 3, 4],
        &[0, 1, 2, 4, 5],
    ] {
        mgr.add_subspace(Subspace::from_dims(dims.iter().copied()).unwrap());
    }
    mgr
}

const WARM_UP: u64 = 5000;
const MEASURED: u64 = 10_000;
const PRUNE_EVERY: u64 = 1000;
const FLOOR: f64 = 1e-4;

#[derive(Default)]
struct RdSum(f64);

impl CellConsumer for RdSum {
    fn cell(&mut self, _ordinal: usize, _store: &ProjectedStore, _point: usize, touch: CellTouch) {
        self.0 += touch.rd;
    }
}

#[test]
fn steady_state_points_allocate_nothing_on_the_per_point_path() {
    let mut mgr = manager();
    let points: Vec<DataPoint> = (0..WARM_UP + MEASURED).map(point_at).collect();
    let mut rd = 0.0;
    let mut evicted = 0;
    let mut run = |mgr: &mut SynopsisManager, ticks: std::ops::Range<u64>| {
        for now in ticks {
            mgr.update_and_screen(now, &points[now as usize], |_, _, touch| rd += touch.rd)
                .unwrap();
            if (now + 1).is_multiple_of(PRUNE_EVERY) {
                evicted += mgr.prune(now, FLOOR);
            }
        }
    };
    // The warm-up runs past the table's cap and opens every cell below.
    run(&mut mgr, 0..WARM_UP);
    let cells = mgr.live_cells();
    let (allocations, bytes) = counted(|| run(&mut mgr, WARM_UP..WARM_UP + MEASURED));
    assert_eq!(mgr.live_cells(), cells, "the measured stretch opened cells");
    assert_eq!(evicted, 0);
    assert!(rd > 0.0);
    assert_eq!(
        (allocations, bytes),
        (0, 0),
        "{MEASURED} steady-state points allocated"
    );
}

#[test]
fn steady_state_points_allocate_nothing_on_the_batch_path() {
    const RUN: u64 = 250;
    let mut mgr = manager();
    let points: Vec<DataPoint> = (0..WARM_UP + MEASURED).map(point_at).collect();
    let mut consumer = RdSum::default();
    let mut evicted = 0;
    let mut run = |mgr: &mut SynopsisManager, ticks: std::ops::Range<u64>| {
        for start in ticks.step_by(RUN as usize) {
            let batch = &points[start as usize..(start + RUN) as usize];
            mgr.update_and_screen_batch(start, batch, &mut consumer)
                .unwrap();
            if (start + RUN).is_multiple_of(PRUNE_EVERY) {
                evicted += mgr.prune(start + RUN - 1, FLOOR);
            }
        }
    };
    run(&mut mgr, 0..WARM_UP);
    let cells = mgr.live_cells();
    let (allocations, bytes) = counted(|| run(&mut mgr, WARM_UP..WARM_UP + MEASURED));
    assert_eq!(mgr.live_cells(), cells, "the measured stretch opened cells");
    assert_eq!(evicted, 0);
    assert!(consumer.0 > 0.0);
    assert_eq!(
        (allocations, bytes),
        (0, 0),
        "{MEASURED} steady-state points allocated"
    );
}
