//! Supervision-plane baseline: quarantine → recovered latency of the
//! self-healing path, and admission throughput of the overload policies
//! (Block / Shed / Sample) under a saturated per-tenant queue.
//!
//! Writes `BENCH_recovery.json` at the repository root (fixed seed 42).
//! Recovery trials use the deterministic fault-injection harness
//! (`FaultPlan::panic_at`) so every trial quarantines at the same stream
//! ordinal; the measured interval is the supervision pass that revives
//! the tenant from its restore point, including the
//! bit-exact detector rebuild and backlog transfer.
//!
//! `SPOT_BENCH_RECOVERY_TRIALS` (e.g. `"3"`) restricts the trial count
//! for CI smoke runs; the default is 7.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use spot::{SpotBuilder, SpotConfig};
use spot_runtime::{
    FaultPlan, FleetConfig, OverloadPolicy, SpotFleet, Supervisor, SupervisorConfig, TenantId,
};
use spot_types::{DataPoint, DomainBounds, SpotError};
use std::time::Instant;

const SEED: u64 = 42;
const PHI: usize = 8;
const SHADOW_EVERY: u64 = 256;
const PANIC_ORDINAL: u64 = 900;
const CHUNK: usize = 64;
const OVERLOAD_POINTS: usize = 20_000;

fn random_points(n: usize, dims: usize, seed: u64) -> Vec<DataPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| DataPoint::new((0..dims).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

fn tenant_config(seed: u64) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(PHI))
        .fs_max_dimension(2)
        .seed(seed)
        .build_config()
        .unwrap()
}

fn learned_fleet(tenants: usize, train: &[DataPoint]) -> (SpotFleet, Vec<TenantId>) {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 256,
        micro_batch: 256,
    });
    let ids: Vec<TenantId> = (0..tenants)
        .map(|t| TenantId::new(format!("tenant-{t:02}")).unwrap())
        .collect();
    for (t, id) in ids.iter().enumerate() {
        fleet
            .register(id.clone(), tenant_config(SEED ^ t as u64))
            .unwrap();
        fleet.learn(id, train).unwrap();
    }
    (fleet, ids)
}

struct RecoveryTrial {
    trial: usize,
    /// Stream ordinal (within the faulted tenant) of the injected panic.
    panic_ordinal: u64,
    /// Verdicts in the restore point → fault window (what replay must
    /// cover).
    points_lost: u64,
    /// Queued backlog transferred into the revived tenant.
    backlog_carried: u64,
    /// Wall-clock cost of the supervision pass that revives the tenant.
    recover_micros: u64,
}

impl From<&RecoveryTrial> for Value {
    fn from(t: &RecoveryTrial) -> Self {
        json!({
            "trial": t.trial,
            "panic_ordinal": t.panic_ordinal,
            "points_lost": t.points_lost,
            "backlog_carried": t.backlog_carried,
            "recover_micros": t.recover_micros,
        })
    }
}

fn trial_count() -> usize {
    std::env::var("SPOT_BENCH_RECOVERY_TRIALS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(7)
}

/// One recovery trial: drive the faulted tenant into quarantine at
/// `PANIC_ORDINAL`, then time the supervision pass that revives it.
fn recovery_trial(trial: usize, train: &[DataPoint]) -> RecoveryTrial {
    let (fleet, ids) = learned_fleet(2, train);
    let faulted = &ids[0];
    let sup = Supervisor::new(
        fleet.clone(),
        SupervisorConfig {
            shadow_every: SHADOW_EVERY,
            ..SupervisorConfig::default()
        },
    );
    sup.tick(); // initial shadows

    fleet.arm_faults(FaultPlan::new().panic_at(faulted.clone(), PANIC_ORDINAL));

    let pts = random_points(
        PANIC_ORDINAL as usize + CHUNK,
        PHI,
        SEED ^ (500 + trial as u64),
    );
    let mut hit = false;
    for chunk in pts.chunks(CHUNK) {
        match fleet.process_batch(faulted, chunk) {
            Ok(_) => {
                sup.tick(); // rolls the shadow while healthy
            }
            Err(SpotError::TenantPoisoned { .. }) => {
                hit = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(hit, "injected panic never fired");
    // A little backlog for the revive path to carry over.
    for p in random_points(32, PHI, SEED ^ (700 + trial as u64)) {
        fleet.ingest(faulted, p).unwrap();
    }

    let t0 = Instant::now();
    let pass = sup.tick();
    let recover_micros = t0.elapsed().as_micros() as u64;
    assert_eq!(pass.recovered.len(), 1, "recovery must succeed first try");
    let report = &pass.recovered[0];
    fleet.disarm_faults();
    RecoveryTrial {
        trial,
        panic_ordinal: PANIC_ORDINAL,
        points_lost: report.points_lost,
        backlog_carried: report.backlog_carried,
        recover_micros,
    }
}

/// Saturated-queue admission: one producer offers `OVERLOAD_POINTS`
/// points under `policy` while the main thread drains micro-batches; the
/// bounded queue stays full most of the run, so the policy decides the
/// producer's fate (block, drop, or keep 1-in-k).
/// One admission policy under a saturated queue: `offered_pts_per_sec` is
/// the producer-side admission rate while a deliberately slow consumer
/// keeps the bounded queue full.
fn overload_arm(policy: OverloadPolicy, label: &str, train: &[DataPoint]) -> Value {
    let (fleet, ids) = learned_fleet(1, train);
    let id = &ids[0];
    fleet.set_overload_policy(id, policy).unwrap();
    let pts = random_points(OVERLOAD_POINTS, PHI, SEED ^ 900);

    let t0 = Instant::now();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let producer_fleet = fleet.clone();
        let pts = &pts;
        let done = &done;
        scope.spawn(move || {
            for p in pts {
                producer_fleet.ingest(id, p.clone()).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        while !done.load(std::sync::atomic::Ordering::Acquire) || fleet.queue_len(id).unwrap() > 0 {
            if fleet.drain(id).unwrap().is_empty() {
                std::thread::yield_now();
            }
        }
    });
    let offered = pts.len() as f64 / t0.elapsed().as_secs_f64();

    let stats = fleet.stats();
    println!(
        "{label:<22} {offered:>10.0} offered pts/s  (shed {}, sampled-kept {})",
        stats.shed, stats.sampled_kept
    );
    json!({
        "policy": label,
        "offered_pts_per_sec": offered,
        "enqueued": stats.processed,
        "shed": stats.shed,
        "sampled_kept": stats.sampled_kept,
    })
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let train = random_points(1000, PHI, SEED ^ 7);

    // The injected panics are contained by the fleet's isolation layer;
    // keep the default hook from spraying their backtraces over the log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut trials = Vec::new();
    for trial in 0..trial_count() {
        let t = recovery_trial(trial, &train);
        println!(
            "trial {:>2}: recovered in {:>7} us  (lost {:>4} verdicts, carried {} backlog)",
            t.trial, t.recover_micros, t.points_lost, t.backlog_carried
        );
        trials.push(t);
    }
    let median_recover_micros = {
        let mut xs: Vec<u64> = trials.iter().map(|t| t.recover_micros).collect();
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    println!("median recovery: {median_recover_micros} us");
    std::panic::set_hook(default_hook);

    let overload = vec![
        overload_arm(OverloadPolicy::Block, "block", &train),
        overload_arm(OverloadPolicy::Shed, "shed", &train),
        overload_arm(
            OverloadPolicy::Sample { keep_one_in: 8 },
            "sample-1-in-8",
            &train,
        ),
    ];

    let out = json!({
        "seed": SEED,
        "cores": cores,
        "phi": PHI,
        "shadow_every": SHADOW_EVERY,
        "trials": trials.iter().map(Value::from).collect::<Vec<_>>(),
        "median_recover_micros": median_recover_micros,
        // Block / Shed / Sample admission under a saturated queue.
        "overload": overload,
    });
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_recovery.json");
    let f = std::fs::File::create(&path).expect("create BENCH_recovery.json");
    serde_json::to_writer_pretty(f, &out).expect("write BENCH_recovery.json");
    println!("(baseline written to {})", path.display());
}
