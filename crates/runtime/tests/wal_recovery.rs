//! Durable-ingestion acceptance suite: the WAL closes the data-loss
//! window.
//!
//! Pins the durability contract of the fleet's one shared log:
//!
//! * **Crash consistency** — a fleet of interleaved tenants killed at
//!   *any* byte of its WAL (kill-after-append, torn write, failed fsync,
//!   mid-rotation, before the prune), on a record of *any* tenant,
//!   recovers every tenant to a prefix-consistent state: every
//!   acknowledged point survives, the on-disk residue never panics the
//!   recovery, and each recovered tenant's subsequent verdict stream is
//!   bit-identical to an uncrashed detector that processed exactly its
//!   surviving prefix. What a crash leaves of the log is bytes at rest, so
//!   each crash state is built from a clean run's files once the fleet is
//!   dropped: the active segment cut back, or a half-written next segment
//!   added, as the crash would have left them.
//! * **One sync for every tenant** — under `sync_every: n` no tenant ever
//!   has `n` acknowledged records behind the last sync, round-robin
//!   traffic over `T` tenants syncs once per `T·(n − 1) + 1` records, one
//!   tenant's traffic once per `n`, and a power cut that takes back
//!   everything after the last sync costs each tenant at most `n − 1`
//!   acknowledged points.
//! * **Zero-loss self-healing** — with the WAL enabled the supervisor's
//!   revive replays the lost window from the log, from a restore point
//!   every pruning checkpoint moves: `points_lost == 0`, `replayed`
//!   counts the re-derived records. A walled restore replays the log too,
//!   or is refused when its tail was pruned.
//! * **Watermark pruning** — durable checkpoints prune sealed segments
//!   once the slowest tenant's watermark passes them; an evicted tenant's
//!   records do not hold a segment, an unclaimed tenant's do; a crash
//!   *between* checkpoint save and prune leaves a stale log prefix that
//!   recovery skips, not replays.
//! * **Isolation** — a producer blocked on one tenant's full queue, or
//!   one tenant's revive replaying its tail, never stalls a co-tenant.
//! * **Offline replay** — `spot_stream::wal::read_wal_from` yields one
//!   tenant's admitted points bit-exactly, in admission order.

use proptest::prelude::*;
use spot::{SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{
    CheckpointStore, FaultPlan, FleetConfig, SpotFleet, Supervisor, SupervisorConfig, TenantId,
    WalTuning,
};
use spot_stream::wal::{read_wal_from, WAL_LOG, WAL_MAGIC};
use spot_types::{DataPoint, DomainBounds, SpotError};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

const DIMS: usize = 3;

fn tenant_config(seed: u64) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(DIMS))
        .seed(seed)
        .fs_max_dimension(2)
        .build_config()
        .unwrap()
}

fn training(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..DIMS)
                    .map(|d| {
                        let x = (i as u64)
                            .wrapping_mul(d as u64 + 5)
                            .wrapping_add(salt.wrapping_mul(11))
                            % 19;
                        0.35 + (x as f64 / 19.0) * 0.3
                    })
                    .collect(),
            )
        })
        .collect()
}

fn stream(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..DIMS)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(7))
                        % 23;
                    0.2 + (x as f64 / 23.0) * 0.5
                })
                .collect();
            if i % 11 == 4 {
                v[i % DIMS] = 0.97;
            }
            DataPoint::new(v)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spot-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tid(name: &str) -> TenantId {
    TenantId::new(name).expect("valid tenant id")
}

/// Tenant `t`'s id (`tenant-a`, `tenant-b`, …); its detector seed is
/// `3 + t`.
fn tenant(t: usize) -> TenantId {
    tid(&format!("tenant-{}", (b'a' + t as u8) as char))
}

fn small_fleet() -> SpotFleet {
    SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 16,
    })
}

/// A walled fleet of `n` learned tenants writing under `dir/wal`, plus its
/// checkpoint store at `dir` — the layout `SpotFleet::recover` expects.
fn walled_fleet(
    dir: &Path,
    tuning: WalTuning,
    train: &[DataPoint],
    n: usize,
) -> (SpotFleet, Vec<TenantId>) {
    let fleet = small_fleet();
    let ids: Vec<TenantId> = (0..n).map(tenant).collect();
    for (t, id) in ids.iter().enumerate() {
        fleet
            .register(id.clone(), tenant_config(3 + t as u64))
            .unwrap();
        fleet.learn(id, train).unwrap();
    }
    fleet.enable_wal(dir.join("wal"), tuning).unwrap();
    (fleet, ids)
}

/// A reference (non-walled) fleet holding tenant `t` learned identically
/// and having processed exactly `prefix` — the uncrashed twin recovery
/// must match.
fn reference_fleet(t: usize, train: &[DataPoint], prefix: &[DataPoint]) -> SpotFleet {
    let fleet = SpotFleet::new(FleetConfig::default());
    let id = tenant(t);
    fleet
        .register(id.clone(), tenant_config(3 + t as u64))
        .unwrap();
    fleet.learn(&id, train).unwrap();
    if !prefix.is_empty() {
        fleet.process_batch(&id, prefix).unwrap();
    }
    fleet
}

fn assert_same_verdicts(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: verdict count diverged");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: diverged at tick {}", a.tick);
    }
}

/// Proves tenant `t` of `fleet` is bit-identical to an uncrashed run over
/// `prefix`: same processed count, and a fresh probe stream produces
/// bitwise-equal verdicts on both.
fn assert_tenant_matches(
    fleet: &SpotFleet,
    t: usize,
    train: &[DataPoint],
    prefix: &[DataPoint],
    label: &str,
) {
    let id = tenant(t);
    assert_eq!(
        fleet.tenant_stats(&id).unwrap().processed,
        prefix.len() as u64,
        "{label}: {id}'s stream position diverged"
    );
    let probe = stream(48, 0xBEEF);
    let want = reference_fleet(t, train, prefix)
        .process_batch(&id, &probe)
        .unwrap();
    let got = fleet.process_batch(&id, &probe).unwrap();
    assert_same_verdicts(&want, &got, &format!("{label}: {id}"));
}

/// Recovers from `dir` and checks tenant `t` against `prefixes[t]`.
fn assert_recovers_to_prefixes(
    dir: &Path,
    tuning: WalTuning,
    train: &[DataPoint],
    prefixes: &[&[DataPoint]],
    label: &str,
) {
    let fleet_config = FleetConfig {
        queue_capacity: 64,
        micro_batch: 16,
    };
    let (recovered, recovery) = SpotFleet::recover_with(dir, fleet_config, tuning, 4)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    assert!(
        recovery.generation.is_some(),
        "{label}: no generation restored"
    );
    for (t, prefix) in prefixes.iter().enumerate() {
        assert_tenant_matches(&recovered, t, train, prefix, label);
    }
}

/// Round `i` of a round-robin feed: `(t, streams[t][i])` for every tenant
/// `t`, in tenant order.
fn round(streams: &[Vec<DataPoint>], i: usize) -> impl Iterator<Item = (usize, &DataPoint)> {
    streams.iter().map(move |s| &s[i]).enumerate()
}

// ---- crash states, built at rest ----------------------------------------

/// The number of the log's active segment under `wal`: the highest.
fn active_number(wal: &Path) -> u64 {
    let numbers = WAL_LOG.list(wal).unwrap();
    *numbers
        .last()
        .expect("a walled fleet has an active segment")
}

fn active_segment(wal: &Path) -> PathBuf {
    WAL_LOG.path(wal, active_number(wal))
}

/// The active segment's length. Records go straight to the file
/// descriptor, so this is every byte the writer has written to it.
fn active_len(wal: &Path) -> u64 {
    std::fs::metadata(active_segment(wal)).unwrap().len()
}

/// Cuts the active segment back to `len` bytes (no further than it
/// reaches): the tail a crash kept from reaching the disk.
fn cut_active(wal: &Path, len: u64) {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(active_segment(wal))
        .unwrap();
    let len = len.min(file.metadata().unwrap().len());
    file.set_len(len).unwrap();
}

/// Adds the half-written next segment a crash mid-rotation leaves: the
/// active one sealed, the next one's prefix cut after four bytes.
fn add_rotation_residue(wal: &Path) {
    let next = WAL_LOG.path(wal, active_number(wal) + 1);
    std::fs::write(next, &WAL_MAGIC[..4]).unwrap();
}

/// Ingests round-robin over `ids` (round `i` offers `streams[t][i]` to
/// every tenant) through tenant `victim`'s record `seq`, and stops there.
/// Returns the points acknowledged per tenant before the victim's record,
/// and the length of the active segment under `wal` just before that
/// record was appended.
fn ingest_through(
    fleet: &SpotFleet,
    wal: &Path,
    ids: &[TenantId],
    streams: &[Vec<DataPoint>],
    victim: usize,
    seq: u64,
) -> (Vec<usize>, u64) {
    let mut acked = vec![0usize; ids.len()];
    for i in 0..streams[0].len() {
        for (t, p) in round(streams, i) {
            if t == victim && i as u64 == seq {
                let (segment, before) = (active_number(wal), active_len(wal));
                fleet.ingest(&ids[t], p.clone()).unwrap();
                assert_eq!(active_number(wal), segment, "the record rotated the log");
                return (acked, before);
            }
            fleet.ingest(&ids[t], p.clone()).unwrap();
            acked[t] += 1;
        }
    }
    panic!("the streams end before {}'s record {seq}", ids[victim])
}

// ---- the headline: crash, recover, continue bit-identically ------------

#[test]
fn crash_recovery_replays_the_tail_bit_identically() {
    let dir = temp_dir("headline");
    let tuning = WalTuning {
        sync_every: 1,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(300, 1);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();

    // First 200 points are drained and durably checkpointed...
    for p in &pts[..200] {
        fleet.ingest(id, p.clone()).unwrap();
        fleet.drain_fully(id).unwrap();
    }
    fleet.checkpoint_durable(&store).unwrap();
    // ...the next 90 are drained but *only* in the WAL, and 10 more sit
    // in the queue (never processed) when the process dies.
    for p in &pts[200..290] {
        fleet.ingest(id, p.clone()).unwrap();
        fleet.drain_fully(id).unwrap();
    }
    for p in &pts[290..300] {
        fleet.ingest(id, p.clone()).unwrap();
    }
    let processed_before = fleet.tenant_stats(id).unwrap().processed;
    assert_eq!(processed_before, 290);
    drop(fleet); // the "crash": queue contents die with the process

    // Recovery replays checkpoint → crash: the 90 drained-but-not-
    // checkpointed points AND the 10 queued ones — nothing admitted is
    // lost, and the future is bit-identical to a run that never crashed.
    assert_recovers_to_prefixes(&dir, tuning, &train, &[&pts], "headline");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_survives_a_torn_newest_checkpoint() {
    let dir = temp_dir("torn-ckpt");
    let tuning = WalTuning {
        sync_every: 1,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(160, 2);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();

    for p in &pts[..80] {
        fleet.ingest(id, p.clone()).unwrap();
        fleet.drain_fully(id).unwrap();
    }
    fleet.checkpoint_durable(&store).unwrap();
    for p in &pts[80..160] {
        fleet.ingest(id, p.clone()).unwrap();
        fleet.drain_fully(id).unwrap();
    }
    let torn = fleet.checkpoint_durable(&store).unwrap();
    drop(fleet);
    // The newest checkpoint is torn mid-write; recovery falls back a
    // generation and replays the *longer* tail to the same end state.
    store.truncate(torn, 40).unwrap();

    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert_eq!(recovery.generation, Some(torn - 1));
    assert_eq!(recovery.rejected.len(), 1);
    assert_eq!(recovery.total_replayed(), 80);
    assert_tenant_matches(&recovered, 0, &train, &pts, "torn-ckpt");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_point_the_detector_would_reject_never_reaches_the_log() {
    // A NaN admitted to the log but rejected by the drain would leave the
    // log 16 records ahead of `processed`; every later checkpoint's
    // watermark would be short and recovery would replay points the
    // detector already processed.
    let dir = temp_dir("reject");
    let tuning = WalTuning {
        sync_every: 1,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(76, 13);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let mut nan = pts[5].clone().values().to_vec();
    nan[1] = f64::NAN;
    let nan = DataPoint::new(nan);

    // 16 offered, one of them NaN: the NaN is refused with its typed
    // error, the other 15 are admitted and drain cleanly.
    for (i, p) in pts[..16].iter().enumerate() {
        let p = if i == 5 { nan.clone() } else { p.clone() };
        match fleet.ingest(id, p) {
            Err(SpotError::NonFiniteValue { dim: 1 }) if i == 5 => {}
            Ok(_) if i != 5 => {}
            other => panic!("point {i}: unexpected {other:?}"),
        }
    }
    assert_eq!(fleet.drain_fully(id).unwrap().len(), 15);
    // Every ingest path refuses before logging: a wrong width, a NaN via
    // try_ingest, a batch holding a NaN (rejected whole). ±∞ is admitted.
    let wide = DataPoint::new(vec![0.5; DIMS + 1]);
    assert!(matches!(
        fleet.ingest(id, wide),
        Err(SpotError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        fleet.try_ingest(id, nan.clone()),
        Err(SpotError::NonFiniteValue { .. })
    ));
    assert!(matches!(
        fleet.process_batch(id, &[pts[0].clone(), nan.clone()]),
        Err(SpotError::NonFiniteValue { .. })
    ));
    assert_eq!(fleet.wal_position(id).unwrap(), Some(15));

    let admitted: Vec<DataPoint> = pts[..16]
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 5)
        .map(|(_, p)| p.clone())
        .chain(pts[16..76].iter().cloned())
        .collect();
    for p in &admitted[15..55] {
        fleet.ingest(id, p.clone()).unwrap();
    }
    fleet.drain_fully(id).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    assert_eq!(fleet.tenant_stats(id).unwrap().processed, 55);
    assert_eq!(fleet.wal_position(id).unwrap(), Some(55));
    for p in &admitted[55..] {
        fleet.ingest(id, p.clone()).unwrap();
    }
    fleet.drain_fully(id).unwrap();
    drop(fleet);

    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert_eq!(recovery.total_replayed(), 20);
    assert_tenant_matches(&recovered, 0, &train, &admitted, "reject");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- the kill-anywhere matrix ------------------------------------------

/// How a crash during the victim's append leaves the log, and whether the
/// victim's record survives it under `sync_every: 1`.
#[derive(Debug, Clone, Copy)]
enum Crash {
    /// The victim's record `kill_seq` is durable but unacknowledged: it
    /// survives. The files stay as they are.
    KillAfterAppend,
    /// Only `keep_bytes` of the victim's record `kill_seq` reach the file:
    /// the torn tail is truncated away.
    TornWrite(usize),
    /// The fsync covering the victim's record `kill_seq` fails: the frame
    /// is lost, and with it everything after the last sync, which under
    /// `sync_every: 1` is where the frame starts.
    FailFsync,
}

impl Crash {
    /// Leaves the log under `wal` as this crash would have, the victim's
    /// frame starting at byte `before` of the active segment.
    fn leave_at_rest(self, wal: &Path, before: u64) {
        match self {
            Crash::KillAfterAppend => {}
            Crash::TornWrite(keep_bytes) => cut_active(wal, before + keep_bytes as u64),
            Crash::FailFsync => cut_active(wal, before),
        }
    }
}

/// Three tenants ingest round-robin into one log; the crash lands on
/// tenant `victim`'s record `kill_seq`. Every tenant must recover to
/// exactly the prefix it had acknowledged (plus the victim's durable
/// record under kill-after-append).
fn run_crash_case(tag: &str, victim: usize, kill_seq: u64, crash: Crash) {
    let dir = temp_dir(&format!("matrix-{tag}-{victim}-{kill_seq}"));
    let tuning = WalTuning {
        sync_every: 1,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let streams: Vec<Vec<DataPoint>> = (0..3)
        .map(|t| stream(kill_seq as usize + 8, 3 + t))
        .collect();
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 3);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.checkpoint_durable(&store).unwrap();

    let wal = dir.join("wal");
    let (mut acked, before) = ingest_through(&fleet, &wal, &ids, &streams, victim, kill_seq);
    drop(fleet);
    crash.leave_at_rest(&wal, before);

    if matches!(crash, Crash::KillAfterAppend) {
        acked[victim] += 1;
    }
    let prefixes: Vec<&[DataPoint]> = (0..3).map(|t| &streams[t][..acked[t]]).collect();
    let label = format!("{tag} at {} seq {kill_seq}", ids[victim]);
    assert_recovers_to_prefixes(&dir, tuning, &train, &prefixes, &label);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash at a record/byte of a tenant chosen by proptest;
    /// recovery is always prefix-consistent for every tenant, never
    /// panics, never loses an acknowledged point. `keep_bytes` sweeps the
    /// torn write across every byte offset of a frame (a 3-dim record of
    /// `tenant-x` is a 59-byte frame).
    #[test]
    fn kill_anywhere_recovers_prefix_consistent(
        victim in 0usize..3,
        kill_seq in 0u64..24,
        keep_bytes in 0usize..59,
        mode in 0u32..3,
    ) {
        match mode {
            0 => run_crash_case("kill", victim, kill_seq, Crash::KillAfterAppend),
            1 => run_crash_case("torn", victim, kill_seq, Crash::TornWrite(keep_bytes)),
            _ => run_crash_case("fsync", victim, kill_seq, Crash::FailFsync),
        }
    }
}

#[test]
fn torn_write_at_every_byte_of_one_frame() {
    // The deterministic complement of the proptest sweep: a spread of
    // byte offsets of one frame, the crash landing on each tenant in turn.
    for (i, keep) in (0..59).step_by(7).enumerate() {
        run_crash_case("tornx", i % 3, 5, Crash::TornWrite(keep));
    }
}

#[test]
fn crash_mid_rotation_drops_the_torn_residue() {
    // One frame per segment: every append rotates, and the crash lands
    // inside the header write of tenant-a's 3rd rotation, before its
    // record 2, after every tenant sealed records 0 and 1.
    let dir = temp_dir("rotation");
    let tuning = WalTuning {
        sync_every: 1,
        segment_bytes: 1,
    };
    let train = training(120, 5);
    let streams: Vec<Vec<DataPoint>> = (0..3).map(|t| stream(16, 4 + t)).collect();
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 3);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    for i in 0..2 {
        for (t, p) in round(&streams, i) {
            fleet.ingest(&ids[t], p.clone()).unwrap();
        }
    }
    drop(fleet);
    add_rotation_residue(&dir.join("wal"));
    let prefixes: Vec<&[DataPoint]> = streams.iter().map(|s| &s[..2]).collect();
    assert_recovers_to_prefixes(&dir, tuning, &train, &prefixes, "rotation");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- one sync covers every tenant ---------------------------------------

#[test]
fn one_sync_covers_every_tenant_under_every_n() {
    const N: u32 = 8;
    let dir = temp_dir("cadence");
    let tuning = WalTuning {
        sync_every: N,
        segment_bytes: 1 << 30, // no rotation: only `sync_every` syncs
    };
    let train = training(120, 5);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 3);
    let pts = stream(300, 12);
    let syncs = || fleet.stats().wal_syncs;

    // Round-robin: after every append, no tenant has N acknowledged
    // records behind the last sync.
    let start = syncs();
    let mut last = start;
    let mut behind = [0u32; 3];
    let rounds = 88; // 264 records: 12 periods of 3·(N − 1) + 1
    for p in &pts[..rounds] {
        for (t, id) in ids.iter().enumerate() {
            fleet.ingest(id, p.clone()).unwrap();
            if syncs() > last {
                last = syncs();
                behind = [0; 3];
            } else {
                behind[t] += 1;
                assert!(behind[t] < N, "{id} has {} unsynced records", behind[t]);
            }
        }
        fleet.pump();
    }
    // One sync per 3·(N − 1) + 1 = 22 records — a log per tenant would
    // have synced each tenant once per N of its own: 3 × 11.
    assert_eq!(syncs() - start, 12);

    // One tenant's traffic syncs once per N, as a log of its own would.
    let start = syncs();
    for p in &pts[..80] {
        fleet.ingest(&ids[1], p.clone()).unwrap();
        fleet.pump();
    }
    assert_eq!(syncs() - start, 80 / u64::from(N));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A power cut takes back everything after the last sync. Under
/// `sync_every: n` that costs each tenant at most `n − 1` acknowledged
/// points, and recovery brings every tenant to exactly what survived.
#[test]
fn a_power_cut_costs_each_tenant_at_most_sync_every_minus_one_points() {
    const N: u32 = 4;
    let dir = temp_dir("power-cut");
    let tuning = WalTuning {
        sync_every: N,
        segment_bytes: 1 << 30, // no rotation: only `sync_every` syncs
    };
    let train = training(120, 5);
    let streams: Vec<Vec<DataPoint>> = (0..3).map(|t| stream(29, 18 + t)).collect();
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 3);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    let wal = dir.join("wal");
    let syncs = || fleet.stats().wal_syncs;

    // After every ingest that synced: the synced length, and each
    // tenant's acknowledged points at that moment.
    let (mut last, mut synced_len) = (syncs(), active_len(&wal));
    let mut acked = [0usize; 3];
    let mut synced = acked;
    for i in 0..streams[0].len() {
        for (t, p) in round(&streams, i) {
            fleet.ingest(&ids[t], p.clone()).unwrap();
            acked[t] += 1;
            if syncs() > last {
                (last, synced_len, synced) = (syncs(), active_len(&wal), acked);
            }
        }
        fleet.pump();
    }
    drop(fleet);
    cut_active(&wal, synced_len);

    let lost: Vec<usize> = (0..3).map(|t| acked[t] - synced[t]).collect();
    assert!(lost.iter().any(|&l| l > 0), "the cut took nothing back");
    for (t, &l) in lost.iter().enumerate() {
        assert!(l < N as usize, "{} lost {l} acknowledged points", ids[t]);
    }
    let prefixes: Vec<&[DataPoint]> = (0..3).map(|t| &streams[t][..synced[t]]).collect();
    assert_recovers_to_prefixes(&dir, tuning, &train, &prefixes, "power cut");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- watermark pruning --------------------------------------------------

#[test]
fn durable_checkpoints_prune_sealed_segments() {
    let dir = temp_dir("prune");
    let tuning = WalTuning {
        sync_every: 4,
        segment_bytes: 1, // one frame per segment: growth is visible
    };
    let train = training(120, 5);
    let pts = stream(40, 6);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();
    for p in &pts {
        fleet.ingest(id, p.clone()).unwrap();
        fleet.drain_fully(id).unwrap();
    }
    let before = fleet.wal_segment_count().unwrap();
    assert!(
        before >= 40,
        "one record per segment expected, got {before}"
    );
    fleet.checkpoint_durable(&store).unwrap();
    let after = fleet.wal_segment_count().unwrap();
    assert_eq!(
        after, 1,
        "pruning left {after} segments behind a full watermark"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shared_segments_prune_at_the_slowest_watermark() {
    let dir = temp_dir("prune-shared");
    let tuning = WalTuning {
        sync_every: 4,
        segment_bytes: 512, // a handful of records of every tenant per segment
    };
    let train = training(120, 5);
    let pts = stream(90, 14);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 3);
    let (a, b, c) = (&ids[0], &ids[1], &ids[2]);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let feed = |points: &[DataPoint], to: &[&TenantId]| {
        for p in points {
            for id in to {
                fleet.ingest(id, p.clone()).unwrap();
            }
        }
    };
    let segments = || fleet.wal_segment_count().unwrap();

    // Every sealed segment holds records of all three tenants; c lags.
    feed(&pts[..30], &[a, b, c]);
    fleet.drain_fully(a).unwrap();
    fleet.drain_fully(b).unwrap();
    let before = segments();
    assert!(
        before >= 4,
        "expected several sealed segments, got {before}"
    );
    fleet.checkpoint_durable(&store).unwrap();
    assert_eq!(
        segments(),
        before,
        "a segment holding c's unprocessed records was deleted"
    );
    // c's watermark moves to 16 of 30: the segments wholly behind it go,
    // the rest stay.
    fleet.drain(c).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    let partial = segments();
    assert!(
        1 < partial && partial < before,
        "{before} → {partial} segments"
    );
    fleet.drain_fully(c).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    assert_eq!(segments(), 1);

    // An evicted tenant's records do not hold a segment.
    feed(&pts[30..60], &[a, b, c]);
    fleet.drain_fully(a).unwrap();
    fleet.drain_fully(b).unwrap();
    assert!(segments() > 1);
    fleet.evict(c).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    assert_eq!(segments(), 1);

    // An unclaimed tenant's records do: d registers after the last
    // durable checkpoint, the process dies, and d's records survive every
    // later checkpoint of the recovered fleet.
    let d = tid("tenant-d");
    fleet.register(d.clone(), tenant_config(9)).unwrap();
    fleet.learn(&d, &train).unwrap();
    feed(&pts[60..90], &[a, b, &d]);
    drop(fleet);
    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert_eq!(recovery.unclaimed, vec![d.clone()]);
    assert_eq!(recovery.total_replayed(), 60);
    recovered.checkpoint_durable(&store).unwrap();
    assert!(recovered.wal_segment_count().unwrap() > 1);
    assert_eq!(read_wal_from(&dir.join("wal"), &d, 0).unwrap().len(), 30);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_checkpoint_and_prune_is_recoverable() {
    let dir = temp_dir("prune-crash");
    let tuning = WalTuning {
        sync_every: 1,
        segment_bytes: 1,
    };
    let train = training(120, 5);
    let streams: Vec<Vec<DataPoint>> = (0..3).map(|t| stream(24, 7 + t)).collect();
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 3);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    for i in 0..24 {
        for (t, p) in round(&streams, i) {
            fleet.ingest(&ids[t], p.clone()).unwrap();
        }
        fleet.pump();
    }
    let segments_before = fleet.wal_segment_count().unwrap();
    // The checkpoint lands on disk; the process dies before pruning. Under
    // `sync_every: 1` the log is synced already, so this is all of
    // `checkpoint_durable` up to its prune.
    store.save(&fleet.checkpoint()).unwrap();
    drop(fleet);
    // The stale prefix behind the watermark is still on disk…
    let residue = std::fs::read_dir(dir.join("wal")).unwrap().count();
    assert!(residue >= segments_before, "segments were pruned anyway");

    // …recovery skips it (nothing to replay), and the *next* durable
    // checkpoint finally prunes.
    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert_eq!(recovery.total_replayed(), 0);
    recovered.checkpoint_durable(&store).unwrap();
    assert_eq!(recovered.wal_segment_count(), Some(1));
    for (t, s) in streams.iter().enumerate() {
        assert_tenant_matches(&recovered, t, &train, s, "prune-crash");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- zero-loss self-healing ---------------------------------------------

#[test]
fn supervised_revive_with_wal_replays_the_lost_window() {
    let dir = temp_dir("revive");
    let tuning = WalTuning {
        sync_every: 8,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(200, 8);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let sup = Supervisor::new(fleet.clone(), SupervisorConfig { shadow_every: 64 });
    sup.tick(); // initial shadow at position 0

    // Panic at point 150 of the tenant's stream; by then the shadow has
    // rolled at least once, so a window of processed-but-unshadowed
    // points exists for the WAL to win back.
    fleet.arm_faults(FaultPlan::new().panic_at(id.clone(), 150));
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut poisoned = false;
    for chunk in pts.chunks(16) {
        for p in chunk {
            fleet.ingest(id, p.clone()).unwrap();
        }
        match fleet.drain_fully(id) {
            Ok(_) => {
                sup.tick();
            }
            Err(SpotError::TenantPoisoned { .. }) => {
                poisoned = true;
                break;
            }
            Err(e) => panic!("unexpected drain error: {e}"),
        }
    }
    std::panic::set_hook(default_hook);
    assert!(poisoned, "injected panic never fired");
    fleet.disarm_faults();

    let pass = sup.tick();
    assert_eq!(pass.recovered.len(), 1, "revive must succeed first try");
    let report = &pass.recovered[0];
    assert_eq!(
        report.points_lost, 0,
        "the WAL must close the loss window (shadow at {})",
        report.processed_at_shadow
    );
    assert!(
        report.replayed > 0,
        "a rolled shadow behind the fault means a non-empty replay"
    );
    assert_eq!(
        report.backlog_carried, 0,
        "walled revive replays, not carries"
    );

    // Every admitted point is accounted for, and the future matches an
    // uncrashed run bit-for-bit.
    fleet.drain_fully(id).unwrap();
    let admitted = fleet.tenant_stats(id).unwrap().processed as usize;
    assert_tenant_matches(&fleet, 0, &train, &pts[..admitted], "revive");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A pruning checkpoint moves the restore point with its watermark: the
/// supervisor's revive after it finds its tail in the log, though the
/// shadow cadence (the default 2048) never rolled the shadow past 0.
#[test]
fn supervised_revive_after_a_pruning_checkpoint_replays_from_the_restore_point() {
    let dir = temp_dir("revive-pruned");
    let tuning = WalTuning {
        segment_bytes: 512,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(140, 22);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let sup = Supervisor::new(fleet.clone(), SupervisorConfig::default());
    assert_eq!(sup.tick().shadows_taken, 1, "the shadow at 0");
    fleet.process_batch(id, &pts[..100]).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    assert_eq!(fleet.wal_segment_count(), Some(1), "pruned to one segment");

    // 40 more admitted; the 20th panics mid-drain.
    fleet.arm_faults(FaultPlan::new().panic_at(id.clone(), 20));
    for p in &pts[100..] {
        fleet.ingest(id, p.clone()).unwrap();
    }
    assert!(matches!(
        fleet.drain_fully(id),
        Err(SpotError::TenantPoisoned { .. })
    ));
    fleet.disarm_faults();

    let pass = sup.tick();
    assert!(pass.failed.is_empty());
    assert_eq!(pass.recovered.len(), 1, "revive must succeed first try");
    let report = &pass.recovered[0];
    assert_eq!(report.processed_at_shadow, 100);
    assert_eq!(report.replayed, 40);
    assert_eq!(report.points_lost, 0);
    assert_eq!(fleet.stats().recoveries, 1);
    assert_eq!(fleet.queue_len(id).unwrap(), 0);
    assert_tenant_matches(&fleet, 0, &train, &pts, "revive after a prune");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- isolation ----------------------------------------------------------

/// Runs `f` on a thread and waits at most 30 s for it: a deadlock fails
/// the test instead of hanging it.
fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("a co-tenant's ingest stalled")
}

#[test]
fn a_blocked_or_replaying_tenant_does_not_stall_its_co_tenants() {
    let dir = temp_dir("isolation");
    let train = training(120, 5);
    let pts = stream(64, 15);

    // A producer blocked on tenant a's full queue holds only a's
    // admission lock.
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 4,
        micro_batch: 4,
    });
    let (a, b) = (tenant(0), tenant(1));
    for (t, id) in [&a, &b].into_iter().enumerate() {
        fleet
            .register(id.clone(), tenant_config(3 + t as u64))
            .unwrap();
        fleet.learn(id, &train).unwrap();
    }
    fleet
        .enable_wal(dir.join("wal-blocked"), WalTuning::default())
        .unwrap();
    for p in &pts[..4] {
        fleet.ingest(&a, p.clone()).unwrap();
    }
    let blocked = {
        let (fleet, a, p) = (fleet.clone(), a.clone(), pts[4].clone());
        std::thread::spawn(move || fleet.ingest(&a, p))
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(!blocked.is_finished(), "a's queue was not full");
    let admitted = within_deadline({
        let (fleet, b, pts) = (fleet.clone(), b.clone(), pts.clone());
        move || (0..4).all(|i| fleet.ingest(&b, pts[i].clone()).is_ok())
    });
    assert!(admitted, "b's ingest failed while a's producer was blocked");
    fleet.drain(&a).unwrap();
    blocked.join().unwrap().unwrap();

    // A revive replaying a's tail holds only a's admission lock: b's
    // ingests complete while the replay is still running.
    const TAIL: u64 = 20_000;
    let fleet = SpotFleet::new(FleetConfig::default());
    for (t, id) in [&a, &b].into_iter().enumerate() {
        fleet
            .register(id.clone(), tenant_config(3 + t as u64))
            .unwrap();
        fleet.learn(id, &train).unwrap();
    }
    fleet
        .enable_wal(dir.join("wal-revive"), WalTuning::default())
        .unwrap();
    fleet.checkpoint_tenant(&a).unwrap();
    for p in stream(TAIL as usize, 16) {
        fleet.ingest(&a, p).unwrap();
        if fleet.queue_len(&a).unwrap() >= 256 {
            fleet.drain_fully(&a).unwrap();
        }
    }
    fleet.drain_fully(&a).unwrap();
    let replaying = || fleet.tenant_stats(&a).unwrap().processed < TAIL;
    // Behind a fleet-wide lock each ingest of b would return only once
    // the replay is over. A thread descheduled for a whole replay sees no
    // overlap either, so the revive is repeated until one is seen.
    let mut during_replay = 0;
    for _ in 0..5 {
        let revive = {
            let (fleet, a) = (fleet.clone(), a.clone());
            std::thread::spawn(move || fleet.revive_tenant(&a))
        };
        while !replaying() && !revive.is_finished() {
            std::hint::spin_loop();
        }
        for p in pts.iter().cycle() {
            if !replaying() {
                break;
            }
            fleet.ingest(&b, p.clone()).unwrap();
            fleet.drain_fully(&b).unwrap();
            if replaying() {
                during_replay += 1;
            }
        }
        assert_eq!(revive.join().unwrap().unwrap(), TAIL);
        if during_replay > 0 {
            break;
        }
    }
    assert!(
        during_replay > 0,
        "no ingest of b completed during a's replay"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A revive replays into a detector it has not registered yet, so a
/// walled `process_batch` that fetched the tenant during the replay and
/// then waited for its admission lock must still land in the detector
/// the revive registered: the point is logged once and processed once.
#[test]
fn a_process_call_waiting_out_a_revive_reaches_the_revived_detector() {
    const TAIL: u64 = 5_000;
    let dir = temp_dir("process-during-revive");
    let train = training(120, 5);
    let fleet = SpotFleet::new(FleetConfig::default());
    let a = tenant(0);
    fleet.register(a.clone(), tenant_config(3)).unwrap();
    fleet.learn(&a, &train).unwrap();
    fleet.enable_wal(&dir, WalTuning::default()).unwrap();
    fleet.checkpoint_tenant(&a).unwrap();
    let pts = stream(TAIL as usize + 1, 17);
    fleet.process_batch(&a, &pts[..TAIL as usize]).unwrap();

    let revive = {
        let (fleet, a) = (fleet.clone(), a.clone());
        std::thread::spawn(move || fleet.revive_tenant(&a))
    };
    // The replay publishes its progress from the restore point at 0.
    while fleet.tenant_stats(&a).unwrap().processed == TAIL && !revive.is_finished() {
        std::hint::spin_loop();
    }
    fleet.process_batch(&a, &pts[TAIL as usize..]).unwrap();
    assert_eq!(revive.join().unwrap().unwrap(), TAIL);
    assert_eq!(fleet.wal_position(&a).unwrap(), Some(TAIL + 1));
    let processed = fleet.with_tenant(&a, |s| s.stats().processed).unwrap();
    assert_eq!(processed, TAIL + 1, "the point went to a replaced detector");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- restoring a walled tenant ------------------------------------------

/// A walled restore replays the log past the checkpoint before it swaps,
/// so the detector and the log still agree afterwards: nothing admitted is
/// rolled back, and a crash after it recovers every admitted point.
#[test]
fn walled_restore_then_crash_recovers_every_admitted_point() {
    let dir = temp_dir("restore-crash");
    let tuning = WalTuning::default();
    let train = training(120, 5);
    let pts = stream(300, 21);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.process_batch(id, &pts[..100]).unwrap();
    let generation = fleet.checkpoint_durable(&store).unwrap();
    fleet.process_batch(id, &pts[100..200]).unwrap();
    fleet
        .restore_tenant(&store.load(generation).unwrap(), id)
        .unwrap();
    fleet.process_batch(id, &pts[200..250]).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    fleet.process_batch(id, &pts[250..]).unwrap();
    assert_eq!(fleet.tenant_stats(id).unwrap().processed, 300);
    drop(fleet);

    assert_recovers_to_prefixes(&dir, tuning, &train, &[&pts], "restore-crash");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A generation whose log tail a later checkpoint pruned cannot be
/// brought to the log's end: restoring it is refused with a typed error
/// and the tenant stays as it was.
#[test]
fn restoring_a_generation_whose_tail_was_pruned_is_refused() {
    let dir = temp_dir("restore-pruned");
    let tuning = WalTuning {
        segment_bytes: 512,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(200, 23);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    let id = &ids[0];
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.process_batch(id, &pts[..100]).unwrap();
    let old = fleet.checkpoint_durable(&store).unwrap();
    fleet.process_batch(id, &pts[100..]).unwrap();
    fleet.checkpoint_durable(&store).unwrap();

    let err = fleet
        .restore_tenant(&store.load(old).unwrap(), id)
        .unwrap_err();
    assert!(matches!(err, SpotError::WalCorrupt(_)), "got {err:?}");
    assert!(fleet.health(id).unwrap().is_healthy());
    assert_tenant_matches(&fleet, 0, &train, &pts, "refused restore");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- odds and ends -------------------------------------------------------

#[test]
fn recover_without_a_checkpoint_reports_unclaimed_logs() {
    let dir = temp_dir("unclaimed");
    let tuning = WalTuning::default();
    let train = training(120, 5);
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 1);
    for p in stream(10, 9) {
        fleet.ingest(&ids[0], p).unwrap();
    }
    drop(fleet); // crash before any durable checkpoint

    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert!(recovery.generation.is_none());
    assert!(recovered.is_empty());
    assert_eq!(recovery.unclaimed, ids);
    // The unclaimed stream is untouched and still replayable offline.
    let records = read_wal_from(&dir.join("wal"), &ids[0], 0).unwrap();
    assert_eq!(records.len(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn per_tenant_logs_left_by_older_builds_are_refused() {
    // Older builds kept one SPOTWAL1 directory per tenant under the WAL
    // root. Those records are acknowledged points: starting an empty log
    // beside them would lose them silently.
    let dir = temp_dir("older-logs");
    let old = dir.join("wal").join("tenant-a");
    std::fs::create_dir_all(&old).unwrap();
    let segment = old.join("wal-00000001.seg");
    std::fs::write(&segment, b"SPOTWAL1\x01\x00\x00\x00").unwrap();
    let names_the_dir = |e: SpotError| matches!(e, SpotError::WalCorrupt(ref m) if m.contains("tenant-a") && m.contains("older build"));

    let Err(err) = SpotFleet::recover(&dir, FleetConfig::default()) else {
        panic!("recovery over per-tenant logs must fail");
    };
    assert!(names_the_dir(err));
    let fleet = small_fleet();
    fleet.register(tenant(0), tenant_config(3)).unwrap();
    let err = fleet
        .enable_wal(dir.join("wal"), WalTuning::default())
        .unwrap_err();
    assert!(names_the_dir(err));
    assert!(!fleet.wal_enabled());
    assert!(segment.exists(), "the old log must be left as it was");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_source_replays_admitted_points_bit_exactly() {
    let dir = temp_dir("source");
    let tuning = WalTuning {
        sync_every: 1,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let streams: Vec<Vec<DataPoint>> = (0..2).map(|t| stream(30, 10 + t)).collect();
    let (fleet, ids) = walled_fleet(&dir, tuning, &train, 2);
    for i in 0..30 {
        for (t, p) in round(&streams, i) {
            fleet.ingest(&ids[t], p.clone()).unwrap();
        }
    }
    fleet.pump();
    drop(fleet);

    // One tenant's records, filtered out of the interleaved log.
    for (t, id) in ids.iter().enumerate() {
        let records = read_wal_from(&dir.join("wal"), id, 0).unwrap();
        assert_eq!(records.len(), streams[t].len());
        for (i, ((seq, point), want)) in records.iter().zip(&streams[t]).enumerate() {
            assert_eq!(*seq, i as u64, "sequence gap at {i}");
            let got_bits: Vec<u64> = point.values().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = want.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{id} point {i} not bit-exact");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enable_wal_guards_against_misuse() {
    let dir = temp_dir("misuse");
    let train = training(120, 5);
    let (fleet, _) = walled_fleet(&dir, WalTuning::default(), &train, 1);
    // Double enable is refused.
    assert!(matches!(
        fleet.enable_wal(dir.join("wal2"), WalTuning::default()),
        Err(SpotError::InvalidConfig(_))
    ));
    // A late-registered tenant is covered automatically.
    let late = tid("late-arrival");
    fleet.register(late.clone(), tenant_config(9)).unwrap();
    fleet.learn(&late, &train).unwrap();
    for p in stream(5, 11) {
        fleet.ingest(&late, p).unwrap();
    }
    assert_eq!(fleet.wal_position(&late).unwrap(), Some(5));
    // Eviction closes the tenant's stream: a later registration under the
    // same id starts a fresh one instead of resuming a stranger's.
    fleet.evict(&late).unwrap();
    fleet.register(late.clone(), tenant_config(9)).unwrap();
    assert_eq!(fleet.wal_position(&late).unwrap(), Some(0));
    assert!(read_wal_from(&dir.join("wal"), &late, 0)
        .unwrap()
        .is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
