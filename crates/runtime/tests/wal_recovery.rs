//! Durable-ingestion acceptance suite: the WAL closes the data-loss
//! window.
//!
//! Pins the durability contract:
//!
//! * **Crash consistency** — a fleet killed at *any* byte of its WAL
//!   (kill-after-append, torn write, failed fsync, mid-rotation) recovers
//!   to a prefix-consistent state: every acknowledged point survives, the
//!   on-disk residue never panics the recovery, and the recovered
//!   tenant's subsequent verdict stream is bit-identical to an uncrashed
//!   detector that processed exactly the surviving prefix.
//! * **Zero-loss self-healing** — with the WAL enabled the supervisor's
//!   revive replays the lost window from the log: `points_lost == 0`,
//!   `replayed` counts the re-derived records.
//! * **Watermark pruning** — durable checkpoints prune sealed segments
//!   behind the recorded watermark; a crash *between* checkpoint save and
//!   prune leaves a stale log prefix that recovery skips, not replays.
//! * **Offline replay** — `spot_stream::WalSource` yields the admitted
//!   points bit-exactly, in admission order.

use proptest::prelude::*;
use spot::{SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{
    CheckpointStore, FaultPlan, FleetConfig, FsyncPolicy, SpotFleet, Supervisor, SupervisorConfig,
    TenantId, WalTuning,
};
use spot_stream::WalSource;
use spot_types::{DataPoint, DomainBounds, SpotError};
use std::path::{Path, PathBuf};

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

/// A serial walled fleet with one learned tenant writing under
/// `dir/wal`, plus its checkpoint store at `dir` — the layout
/// `SpotFleet::recover` expects.
fn walled_fleet(dir: &Path, tuning: WalTuning, train: &[DataPoint]) -> (SpotFleet, TenantId) {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 16,
    });
    let id = tid("tenant-a");
    fleet.register(id.clone(), tenant_config(3)).unwrap();
    fleet.learn(&id, train).unwrap();
    fleet.enable_wal(dir.join("wal"), tuning).unwrap();
    (fleet, id)
}

/// A reference (non-walled) fleet that learned identically and processed
/// exactly `prefix` — the uncrashed twin recovery must match.
fn reference_fleet(train: &[DataPoint], prefix: &[DataPoint]) -> (SpotFleet, TenantId) {
    let fleet = SpotFleet::new(FleetConfig::default());
    let id = tid("tenant-a");
    fleet.register(id.clone(), tenant_config(3)).unwrap();
    fleet.learn(&id, train).unwrap();
    if !prefix.is_empty() {
        fleet.process_batch(&id, prefix).unwrap();
    }
    (fleet, id)
}

fn assert_same_verdicts(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: verdict count diverged");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: diverged at tick {}", a.tick);
    }
}

/// Recovers from `dir` and proves the state is bit-identical to an
/// uncrashed run over `prefix`: same processed count, and a fresh probe
/// stream produces bitwise-equal verdicts on both.
fn assert_recovers_to_prefix(
    dir: &Path,
    tuning: WalTuning,
    train: &[DataPoint],
    prefix: &[DataPoint],
    label: &str,
) {
    let (recovered, recovery) = SpotFleet::recover_with(
        dir,
        FleetConfig {
            queue_capacity: 64,
            micro_batch: 16,
        },
        tuning,
        4,
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let id = tid("tenant-a");
    assert!(
        recovery.generation.is_some(),
        "{label}: no generation restored"
    );
    assert_eq!(
        recovered.tenant_stats(&id).unwrap().processed,
        prefix.len() as u64,
        "{label}: recovered stream position diverged (replayed {:?})",
        recovery.replayed
    );
    let (reference, _) = reference_fleet(train, prefix);
    let probe = stream(48, 0xBEEF);
    let want = reference.process_batch(&id, &probe).unwrap();
    let got = recovered.process_batch(&id, &probe).unwrap();
    assert_same_verdicts(&want, &got, label);
}

// ---- the headline: crash, recover, continue bit-identically ------------

#[test]
fn crash_recovery_replays_the_tail_bit_identically() {
    let dir = temp_dir("headline");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(300, 1);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let store = CheckpointStore::open(&dir, 4).unwrap();

    // First 200 points are drained and durably checkpointed...
    for p in &pts[..200] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    fleet.checkpoint_durable(&store).unwrap();
    // ...the next 90 are drained but *only* in the WAL, and 10 more sit
    // in the queue (never processed) when the process dies.
    for p in &pts[200..290] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    for p in &pts[290..300] {
        fleet.ingest(&id, p.clone()).unwrap();
    }
    let processed_before = fleet.tenant_stats(&id).unwrap().processed;
    assert_eq!(processed_before, 290);
    drop(fleet); // the "crash": queue contents die with the process

    // Recovery replays checkpoint → crash: the 90 drained-but-not-
    // checkpointed points AND the 10 queued ones — nothing admitted is
    // lost, and the future is bit-identical to a run that never crashed.
    assert_recovers_to_prefix(&dir, tuning, &train, &pts, "headline");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_survives_a_torn_newest_checkpoint() {
    let dir = temp_dir("torn-ckpt");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(160, 2);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let store = CheckpointStore::open(&dir, 4).unwrap();

    for p in &pts[..80] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    fleet.checkpoint_durable(&store).unwrap();
    for p in &pts[80..160] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
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
    assert_eq!(recovered.tenant_stats(&id).unwrap().processed, 160);
    let (reference, _) = reference_fleet(&train, &pts);
    let probe = stream(48, 0xBEEF);
    let want = reference.process_batch(&id, &probe).unwrap();
    let got = recovered.process_batch(&id, &probe).unwrap();
    assert_same_verdicts(&want, &got, "torn-ckpt");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- the kill-anywhere matrix ------------------------------------------

/// How a scripted crash mutilates the log, and how many of the first
/// `kill_seq + 1` admissions must survive it under `EveryRecord` fsync.
#[derive(Debug, Clone, Copy)]
enum Crash {
    /// Record `kill_seq` is durable but unacknowledged: it survives.
    KillAfterAppend,
    /// Only `keep_bytes` of record `kill_seq`'s frame reach the file: the
    /// torn tail is truncated away.
    TornWrite(usize),
    /// The fsync covering record `kill_seq` fails: the frame is lost.
    FailFsync,
}

fn run_crash_case(tag: &str, kill_seq: u64, crash: Crash) {
    let dir = temp_dir(&format!("matrix-{tag}-{kill_seq}"));
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(kill_seq as usize + 8, 3);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.checkpoint_durable(&store).unwrap();

    let plan = match crash {
        Crash::KillAfterAppend => FaultPlan::new().wal_kill_after_append(id.clone(), kill_seq),
        Crash::TornWrite(keep) => FaultPlan::new().wal_torn_write(id.clone(), kill_seq, keep),
        Crash::FailFsync => FaultPlan::new().wal_fail_fsync(id.clone(), kill_seq),
    };
    fleet.arm_faults(plan);

    let mut acknowledged = 0usize;
    for p in &pts {
        match fleet.ingest(&id, p.clone()) {
            Ok(_) => acknowledged += 1,
            Err(SpotError::Io(_)) => break,
            Err(e) => panic!("unexpected ingest error: {e}"),
        }
    }
    assert_eq!(
        acknowledged as u64, kill_seq,
        "crash fired at the wrong seq"
    );
    // Once dead, every further append is refused — no silent data loss.
    assert!(matches!(
        fleet.ingest(&id, pts[0].clone()),
        Err(SpotError::Io(_))
    ));
    drop(fleet);

    let survivors = match crash {
        Crash::KillAfterAppend => kill_seq + 1,
        Crash::TornWrite(_) | Crash::FailFsync => kill_seq,
    };
    assert_recovers_to_prefix(
        &dir,
        tuning,
        &train,
        &pts[..survivors as usize],
        &format!("{tag} at seq {kill_seq}"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill the writer at a record/byte chosen by proptest; recovery is
    /// always prefix-consistent, never panics, never loses an
    /// acknowledged point. `keep_bytes` sweeps the torn write across
    /// every byte offset of a frame (a 3-dim frame is 48 bytes).
    #[test]
    fn kill_anywhere_recovers_prefix_consistent(
        kill_seq in 0u64..24,
        keep_bytes in 0usize..48,
        mode in 0u32..3,
    ) {
        match mode {
            0 => run_crash_case("kill", kill_seq, Crash::KillAfterAppend),
            1 => run_crash_case("torn", kill_seq, Crash::TornWrite(keep_bytes)),
            _ => run_crash_case("fsync", kill_seq, Crash::FailFsync),
        }
    }
}

#[test]
fn torn_write_at_every_byte_of_one_frame() {
    // The deterministic complement of the proptest sweep: every byte
    // offset of one frame, exhaustively.
    for keep in (0..48).step_by(7) {
        run_crash_case("tornx", 5, Crash::TornWrite(keep));
    }
}

#[test]
fn crash_mid_rotation_drops_the_torn_residue() {
    // One record per segment: every append past the first rotates, and
    // the crash lands inside the 3rd rotation's header write.
    let dir = temp_dir("rotation");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        segment_bytes: 1,
    };
    let train = training(120, 5);
    let pts = stream(16, 4);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    fleet.checkpoint_durable(&store).unwrap();
    fleet.arm_faults(FaultPlan::new().wal_crash_on_rotation(id.clone(), 2));

    let mut acknowledged = 0usize;
    for p in &pts {
        match fleet.ingest(&id, p.clone()) {
            Ok(_) => acknowledged += 1,
            Err(SpotError::Io(_)) => break,
            Err(e) => panic!("unexpected ingest error: {e}"),
        }
    }
    // Rotations happen before appending records 1, 2, 3, …: the crash in
    // rotation ordinal 2 (before record 3) leaves records 0..=2 sealed.
    assert_eq!(acknowledged, 3);
    drop(fleet);
    assert_recovers_to_prefix(&dir, tuning, &train, &pts[..3], "rotation");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- watermark pruning --------------------------------------------------

#[test]
fn durable_checkpoints_prune_sealed_segments() {
    let dir = temp_dir("prune");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryN(4),
        segment_bytes: 1, // one record per segment: growth is visible
    };
    let train = training(120, 5);
    let pts = stream(40, 6);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    for p in &pts {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    let before = fleet.wal_segment_count(&id).unwrap().unwrap();
    assert!(
        before >= 40,
        "one record per segment expected, got {before}"
    );
    fleet.checkpoint_durable(&store).unwrap();
    let after = fleet.wal_segment_count(&id).unwrap().unwrap();
    assert!(
        after <= 1 + 1, // the active segment (+1 slack for the rotation edge)
        "pruning left {after} segments behind a full watermark"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_checkpoint_and_prune_is_recoverable() {
    let dir = temp_dir("prune-crash");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        segment_bytes: 1,
    };
    let train = training(120, 5);
    let pts = stream(24, 7);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let store = CheckpointStore::open(&dir, 4).unwrap();
    for p in &pts {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    let segments_before = fleet.wal_segment_count(&id).unwrap().unwrap();
    fleet.arm_faults(FaultPlan::new().crash_before_wal_prune());
    // The checkpoint lands on disk; the process dies before pruning.
    fleet.checkpoint_durable(&store).unwrap();
    assert!(matches!(
        fleet.ingest(&id, pts[0].clone()),
        Err(SpotError::Io(_))
    ));
    drop(fleet);
    // The stale prefix behind the watermark is still on disk…
    let wal_dir = dir.join("wal").join("tenant-a");
    let residue = std::fs::read_dir(&wal_dir).unwrap().count();
    assert!(residue >= segments_before, "segments were pruned anyway");

    // …recovery skips it (nothing to replay), and the *next* durable
    // checkpoint finally prunes.
    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert_eq!(recovery.total_replayed(), 0);
    assert_eq!(recovered.tenant_stats(&id).unwrap().processed, 24);
    recovered.checkpoint_durable(&store).unwrap();
    assert!(recovered.wal_segment_count(&id).unwrap().unwrap() <= 2);

    let (reference, _) = reference_fleet(&train, &pts);
    let probe = stream(48, 0xBEEF);
    let want = reference.process_batch(&id, &probe).unwrap();
    let got = recovered.process_batch(&id, &probe).unwrap();
    assert_same_verdicts(&want, &got, "prune-crash");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- zero-loss self-healing ---------------------------------------------

#[test]
fn supervised_revive_with_wal_replays_the_lost_window() {
    let dir = temp_dir("revive");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryN(8),
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(200, 8);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    let sup = Supervisor::new(
        fleet.clone(),
        SupervisorConfig {
            shadow_every: 64,
            ..SupervisorConfig::default()
        },
    );
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
            fleet.ingest(&id, p.clone()).unwrap();
        }
        match fleet.drain_fully(&id) {
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

    let shadow_at = sup.shadow_position(&id).unwrap();
    let pass = sup.tick();
    assert_eq!(pass.recovered.len(), 1, "revive must succeed first try");
    let report = &pass.recovered[0];
    assert_eq!(
        report.points_lost, 0,
        "the WAL must close the loss window (shadow at {shadow_at})"
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
    fleet.drain_fully(&id).unwrap();
    let admitted = fleet.tenant_stats(&id).unwrap().processed as usize;
    let (reference, _) = reference_fleet(&train, &pts[..admitted]);
    let probe = stream(48, 0xBEEF);
    let want = reference.process_batch(&id, &probe).unwrap();
    let got = fleet.process_batch(&id, &probe).unwrap();
    assert_same_verdicts(&want, &got, "revive");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- odds and ends -------------------------------------------------------

#[test]
fn recover_without_a_checkpoint_reports_unclaimed_logs() {
    let dir = temp_dir("unclaimed");
    let tuning = WalTuning::default();
    let train = training(120, 5);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    for p in stream(10, 9) {
        fleet.ingest(&id, p).unwrap();
    }
    drop(fleet); // crash before any durable checkpoint

    let (recovered, recovery) =
        SpotFleet::recover_with(&dir, FleetConfig::default(), tuning, 4).unwrap();
    assert!(recovery.generation.is_none());
    assert!(recovered.is_empty());
    assert_eq!(recovery.unclaimed, vec!["tenant-a".to_string()]);
    // The unclaimed log is untouched and still replayable offline.
    let source = WalSource::open(dir.join("wal").join("tenant-a")).unwrap();
    assert_eq!(source.len(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_source_replays_admitted_points_bit_exactly() {
    let dir = temp_dir("source");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(30, 10);
    let (fleet, id) = walled_fleet(&dir, tuning, &train);
    for p in &pts {
        fleet.ingest(&id, p.clone()).unwrap();
    }
    fleet.drain_fully(&id).unwrap();
    drop(fleet);

    let source = WalSource::open(dir.join("wal").join("tenant-a")).unwrap();
    let records: Vec<_> = source.collect();
    assert_eq!(records.len(), pts.len());
    for (i, (rec, want)) in records.iter().zip(&pts).enumerate() {
        assert_eq!(rec.seq, i as u64, "sequence gap at {i}");
        let got_bits: Vec<u64> = rec.point.values().iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u64> = want.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits, "point {i} not bit-exact");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enable_wal_guards_against_misuse() {
    let dir = temp_dir("misuse");
    let train = training(120, 5);
    let (fleet, id) = walled_fleet(&dir, WalTuning::default(), &train);
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
    // Eviction removes the tenant's log directory.
    fleet.evict(&late).unwrap();
    assert!(!dir.join("wal").join("late-arrival").exists());
    let _ = id;
    std::fs::remove_dir_all(&dir).unwrap();
}
