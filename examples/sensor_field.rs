//! Sensor-field monitoring with checkpoint/restore.
//!
//! Streams readings from a simulated sensor network (diurnal cycle,
//! coupled neighbours) through SPOT, detecting three fault families —
//! including *correlation breaks*, where both readings are individually
//! plausible and only the joint 2-sensor projection is anomalous (the
//! textbook projected outlier). Midway, the detector is checkpointed,
//! "restarted" from the checkpoint bytes, and continues monitoring.
//!
//! Run with:
//! ```text
//! cargo run --release --example sensor_field
//! ```
//!
//! With `--resume`, the example instead exercises the **warm-restart
//! checkpoint on the binary column carrier (v4)**: it streams half the
//! readings, seals a full checkpoint into a checksummed binary container,
//! restores a detector from those bytes alone, and diffs the second
//! half's verdicts against an uninterrupted detector — they must be
//! bit-identical (exit code 1 otherwise). This is the checkpoint/restore
//! smoke CI runs:
//! ```text
//! cargo run --release --example sensor_field -- --resume
//! ```

use spot::{Spot, SpotBuilder};
use spot_data::{SensorConfig, SensorGenerator};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--resume") {
        return resume_smoke();
    }
    template_restart_demo()
}

/// `--resume`: checkpoint mid-stream, restart from the sealed binary
/// container, and prove the resumed detector is bit-identical to one
/// that never stopped.
fn resume_smoke() -> Result<(), Box<dyn std::error::Error>> {
    let mut generator = SensorGenerator::new(SensorConfig {
        sensors: 24,
        fault_fraction: 0.02,
        seed: 99,
        ..Default::default()
    })?;
    let train = generator.generate_normal(3000);
    let first: Vec<_> = generator.generate(3000);
    let second: Vec<_> = generator.generate(3000);

    let mut uninterrupted = SpotBuilder::new(generator.bounds()).seed(21).build()?;
    uninterrupted.learn(&train)?;
    let mut resumable = SpotBuilder::new(generator.bounds()).seed(21).build()?;
    resumable.learn(&train)?;

    for r in &first {
        uninterrupted.process(&r.point)?;
        resumable.process(&r.point)?;
    }

    // Persist → "crash" → restore from the sealed container alone.
    let bytes = resumable.checkpoint().to_bytes();
    println!(
        "checkpoint at tick {}: {} bytes on the binary column carrier",
        resumable.now(),
        bytes.len()
    );
    drop(resumable);
    let mut resumed = spot::restore_from_bytes(&bytes)?;

    let mut mismatches = 0usize;
    for r in &second {
        let a = uninterrupted.process(&r.point)?;
        let b = resumed.process(&r.point)?;
        if !a.bitwise_eq(&b) {
            mismatches += 1;
        }
    }
    let stats_match = uninterrupted.stats() == resumed.stats()
        && uninterrupted.footprint() == resumed.footprint();
    if mismatches == 0 && stats_match {
        println!(
            "resume OK: {}/{} post-restart verdicts bit-identical; stats and footprint match",
            second.len(),
            second.len()
        );
        Ok(())
    } else {
        eprintln!(
            "resume FAILED: {mismatches}/{} verdicts diverged (stats match: {stats_match})",
            second.len()
        );
        std::process::exit(1);
    }
}

fn template_restart_demo() -> Result<(), Box<dyn std::error::Error>> {
    let mut generator = SensorGenerator::new(SensorConfig {
        sensors: 24,
        fault_fraction: 0.02,
        seed: 99,
        ..Default::default()
    })?;

    let mut detector = SpotBuilder::new(generator.bounds())
        .fs_max_dimension(2)
        .seed(21)
        .build()?;
    detector.learn(&generator.generate_normal(3000))?;

    let mut caught: HashMap<String, (u32, u32)> = HashMap::new();
    let mut false_alarms = 0u32;
    let run = |detector: &mut Spot,
               generator: &mut SensorGenerator,
               n: usize,
               caught: &mut HashMap<String, (u32, u32)>,
               false_alarms: &mut u32|
     -> Result<(), Box<dyn std::error::Error>> {
        for record in generator.generate(n) {
            let verdict = detector.process(&record.point)?;
            if record.is_anomaly() {
                let e = caught
                    .entry(record.label.category().to_string())
                    .or_default();
                e.1 += 1;
                if verdict.outlier {
                    e.0 += 1;
                }
            } else if verdict.outlier {
                *false_alarms += 1;
            }
        }
        Ok(())
    };

    run(
        &mut detector,
        &mut generator,
        6000,
        &mut caught,
        &mut false_alarms,
    )?;

    // Operational restart: persist the full state, rebuild, resume.
    let bytes = detector.checkpoint().to_bytes();
    println!(
        "checkpoint taken at tick {} ({} bytes, SST sizes {:?}); restarting detector…",
        detector.now(),
        bytes.len(),
        detector.sst().sizes()
    );
    let mut detector = spot::restore_from_bytes(&bytes)?;
    run(
        &mut detector,
        &mut generator,
        6000,
        &mut caught,
        &mut false_alarms,
    )?;

    println!("\nfault detection across 12k monitored readings:");
    let mut fams: Vec<_> = caught.iter().collect();
    fams.sort();
    for (family, (hit, total)) in fams {
        println!(
            "  {family:<11} {hit:>3}/{total:<3} ({:.1}%)",
            100.0 * *hit as f64 / (*total).max(1) as f64
        );
    }
    println!("false alarms: {false_alarms}");
    println!("stats: {:?}", detector.stats());
    Ok(())
}
