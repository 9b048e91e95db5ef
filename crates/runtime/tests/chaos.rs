//! Chaos acceptance suite for the fleet supervision plane.
//!
//! Pins the robustness contract:
//!
//! * **Panic isolation** — a panic injected into one tenant mid-batch
//!   surfaces as a typed `TenantPoisoned` error and quarantines that
//!   tenant only; every co-tenant stays bit-identical to a fault-free
//!   run.
//! * **Self-healing** — the `Supervisor` restores the quarantined tenant
//!   from its rolling shadow checkpoint within the retry budget, and
//!   replaying exactly the reported `points_lost` window reconverges the
//!   tenant with the uninterrupted verdict stream, bit-for-bit.
//! * **Skip-and-report pump** — a faulted tenant is reported per-tenant;
//!   the sweep never aborts and never consumes the faulted backlog.
//! * **Bounded retries** — scripted recovery failures exhaust the budget
//!   through deterministic exponential backoff into the terminal `Failed`
//!   state, from which a manual revive still works.

use proptest::prelude::*;
use spot::{EvolutionConfig, Spot, SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{
    FaultPlan, FleetConfig, IngestOutcome, SpotFleet, Supervisor, SupervisorConfig, TenantId,
};
use spot_types::{DataPoint, DomainBounds, SpotError};

fn tenant_config(seed: u64, dims: usize) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(dims))
        .seed(seed)
        .fs_max_dimension(2)
        .evolution(EvolutionConfig {
            period: 70,
            ..Default::default()
        })
        .pruning(55, 1e-4)
        .build_config()
        .unwrap()
}

fn training(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..dims)
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

fn stream(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..dims)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(7))
                        % 23;
                    0.2 + (x as f64 / 23.0) * 0.5
                })
                .collect();
            if i % 11 == 4 {
                v[i % dims] = if (i / 11) % 2 == 0 { 0.97 } else { 0.02 };
            }
            DataPoint::new(v)
        })
        .collect()
}

fn assert_same_verdicts(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: tick {}: {a:?} vs {b:?}", a.tick);
    }
}

fn standalone_verdicts(
    seed: u64,
    dims: usize,
    train: &[DataPoint],
    pts: &[DataPoint],
) -> Vec<Verdict> {
    let mut spot = Spot::new(tenant_config(seed, dims)).unwrap();
    spot.learn(train).unwrap();
    pts.iter().map(|p| spot.process(p).unwrap()).collect()
}

fn tid(s: &str) -> TenantId {
    TenantId::new(s).unwrap()
}

/// The headline acceptance scenario: a panic injected into one tenant
/// mid-batch leaves co-tenants bit-identical to a fault-free run, and the
/// supervisor auto-recovers the faulted tenant from its shadow checkpoint;
/// replaying the reported lost window reconverges with the uninterrupted
/// stream.
#[test]
fn mid_batch_panic_isolates_and_recovers_serial() {
    let dims = 4;
    let chunk = 64;
    let n = 320;
    let panic_ordinal: usize = 130; // inside the third chunk
    let train = training(150, dims, 13);
    let seeds = [
        (tid("alpha"), 3u64),
        (tid("bravo"), 5u64),
        (tid("carol"), 8u64),
    ];
    let faulted = &seeds[1].0;

    let fleet = SpotFleet::new(FleetConfig::default());
    for (id, seed) in &seeds {
        fleet
            .register(id.clone(), tenant_config(*seed, dims))
            .unwrap();
        fleet.learn(id, &train).unwrap();
    }
    let supervisor = Supervisor::new(fleet.clone(), SupervisorConfig { shadow_every: 100 });
    // Initial shadows at stream position 0.
    assert_eq!(supervisor.tick().shadows_taken, 3);

    fleet.arm_faults(FaultPlan::new().panic_at(faulted.clone(), panic_ordinal as u64));

    let mut delivered: Vec<(TenantId, Vec<Verdict>)> = seeds
        .iter()
        .map(|(id, _)| (id.clone(), Vec::new()))
        .collect();
    let mut faulted_error = None;
    for start in (0..n).step_by(chunk) {
        for (t, (id, seed)) in seeds.iter().enumerate() {
            let pts = stream(n, dims, *seed);
            match fleet.process_batch(id, &pts[start..start + chunk]) {
                Ok(vs) => delivered[t].1.extend(vs),
                Err(e) => {
                    assert_eq!(id, faulted, "only the faulted tenant may error");
                    faulted_error.get_or_insert(e);
                }
            }
        }
        // Supervision runs *between* chunks, like a real service loop —
        // but withhold recovery until the drive is over so the error
        // persistence below is observable.
        if start + chunk < panic_ordinal {
            supervisor.tick();
        }
    }

    // The injected panic surfaced as the typed quarantine error, with the
    // panic payload preserved.
    match faulted_error.expect("the faulted tenant must error") {
        SpotError::TenantPoisoned { tenant, panic } => {
            assert_eq!(tenant, faulted.to_string());
            assert!(panic.contains("injected fault"), "payload lost: {panic}");
        }
        other => panic!("expected TenantPoisoned, got {other:?}"),
    }
    let health = fleet.health(faulted).unwrap();
    assert!(health.is_quarantined(), "got {health:?}");
    let stats = fleet.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.panics, 1);

    // Co-tenants: complete verdict streams, bit-identical to standalone —
    // as if the faulted tenant never existed.
    for (id, seed) in &seeds {
        if id == faulted {
            continue;
        }
        let pts = stream(n, dims, *seed);
        let want = standalone_verdicts(*seed, dims, &train, &pts);
        let got = &delivered.iter().find(|(i, _)| i == id).unwrap().1;
        assert_same_verdicts(&want, got, &format!("co-tenant {id}"));
    }

    // Recovery: one attempt, no backoff, restored from the last shadow.
    let pass = supervisor.tick();
    assert!(pass.failed.is_empty());
    assert_eq!(pass.recovered.len(), 1);
    let report = &pass.recovered[0];
    assert_eq!(&report.tenant, faulted);
    assert_eq!(report.attempts, 1);
    assert!(report.backoff.is_empty());
    let shadow_at = report.processed_at_shadow;
    assert!(
        shadow_at > 0 && shadow_at <= report.processed_at_failure,
        "shadow at {shadow_at}, failure at {}",
        report.processed_at_failure
    );
    // The failed 64-point chunk is part of the lost window.
    assert_eq!(
        report.points_lost,
        report.processed_at_failure - shadow_at + chunk as u64
    );
    assert!(fleet.health(faulted).unwrap().is_healthy());
    assert_eq!(fleet.stats().recoveries, 1);
    assert_eq!(fleet.stats().quarantined, 0);

    // Convergence: replay the stream from the shadow position; the
    // recovered tenant must emit exactly the verdicts the uninterrupted
    // run would have emitted there.
    let (_, seed) = seeds.iter().find(|(i, _)| i == faulted).unwrap();
    let pts = stream(n, dims, *seed);
    let want = standalone_verdicts(*seed, dims, &train, &pts);
    let replayed = fleet
        .process_batch(faulted, &pts[shadow_at as usize..])
        .unwrap();
    assert_same_verdicts(
        &want[shadow_at as usize..],
        &replayed,
        "recovered tenant replaying its lost window",
    );
}

#[test]
fn pump_skips_and_reports_a_quarantined_tenant() {
    let dims = 3;
    let train = training(120, dims, 2);
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 16,
    });
    let a = tid("a-healthy");
    let b = tid("b-faulted");
    for (id, seed) in [(&a, 1u64), (&b, 2u64)] {
        fleet
            .register(id.clone(), tenant_config(seed, dims))
            .unwrap();
        fleet.learn(id, &train).unwrap();
    }
    // Panic on b's very first drained point.
    fleet.arm_faults(FaultPlan::new().panic_at(b.clone(), 0));
    let pts_a = stream(10, dims, 1);
    let pts_b = stream(20, dims, 2);
    for p in &pts_a {
        assert_eq!(
            fleet.ingest(&a, p.clone()).unwrap(),
            IngestOutcome::Enqueued
        );
    }
    for p in &pts_b {
        fleet.ingest(&b, p.clone()).unwrap();
    }

    let results = fleet.pump();
    assert_eq!(results.len(), 2, "both tenants reported");
    let a_verdicts = results
        .iter()
        .find(|(id, _)| *id == a)
        .unwrap()
        .1
        .as_ref()
        .unwrap();
    // The healthy tenant's sweep is unaffected: its first micro-batch
    // matches the standalone reference bit-for-bit.
    let want = standalone_verdicts(1, dims, &train, &pts_a);
    assert_same_verdicts(&want[..a_verdicts.len()], a_verdicts, "co-tenant sweep");
    let b_result = &results.iter().find(|(id, _)| *id == b).unwrap().1;
    assert!(
        matches!(b_result, Err(SpotError::TenantPoisoned { .. })),
        "got {b_result:?}"
    );

    // The faulted micro-batch was consumed by the panic; everything still
    // queued stays queued for recovery (gate fires before dequeuing).
    let backlog = fleet.queue_len(&b).unwrap();
    assert_eq!(backlog, pts_b.len() - 16, "backlog preserved");
    let again = fleet.pump();
    let b_again = &again.iter().find(|(id, _)| *id == b).unwrap().1;
    assert!(matches!(b_again, Err(SpotError::TenantPoisoned { .. })));
    assert_eq!(
        fleet.queue_len(&b).unwrap(),
        backlog,
        "no dequeue while quarantined"
    );
}

#[test]
fn supervisor_carries_the_backlog_into_the_recovered_tenant() {
    let dims = 3;
    let train = training(120, dims, 4);
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 8,
    });
    let b = tid("backlogged");
    fleet.register(b.clone(), tenant_config(6, dims)).unwrap();
    fleet.learn(&b, &train).unwrap();
    let supervisor = Supervisor::new(fleet.clone(), SupervisorConfig::default());
    supervisor.tick();

    fleet.arm_faults(FaultPlan::new().panic_at(b.clone(), 0));
    let pts = stream(20, dims, 6);
    for p in &pts {
        fleet.ingest(&b, p.clone()).unwrap();
    }
    // First drain panics away the first micro-batch (8 points) and
    // quarantines; 12 stay queued — and still ingestible.
    assert!(fleet.drain(&b).is_err());
    fleet.ingest(&b, pts[0].clone()).unwrap();
    assert_eq!(fleet.queue_len(&b).unwrap(), 13);

    let pass = supervisor.tick();
    assert_eq!(pass.recovered.len(), 1);
    assert_eq!(pass.recovered[0].backlog_carried, 13);
    assert_eq!(fleet.queue_len(&b).unwrap(), 13);
    // The carried backlog drains normally after recovery.
    assert_eq!(fleet.drain_fully(&b).unwrap().len(), 13);
}

#[test]
fn recovery_budget_exhausts_into_failed_then_manual_revive_works() {
    let dims = 3;
    let train = training(120, dims, 9);
    let fleet = SpotFleet::new(FleetConfig::default());
    let b = tid("doomed");
    fleet.register(b.clone(), tenant_config(4, dims)).unwrap();
    fleet.learn(&b, &train).unwrap();
    let supervisor = Supervisor::new(fleet.clone(), SupervisorConfig { shadow_every: 1000 });
    supervisor.tick();
    fleet.checkpoint_tenant(&b).unwrap();

    // Every recovery attempt is scripted to fail; the panic fires on the
    // first processed point.
    fleet.arm_faults(
        FaultPlan::new()
            .panic_at(b.clone(), 0)
            .fail_recovery(b.clone(), 3),
    );
    let pts = stream(5, dims, 4);
    assert!(fleet.process_batch(&b, &pts).is_err());

    // Deterministic schedule: attempt on pass 1
    // (fails, backoff 1), pass 2 cools down, attempt on pass 3 (fails,
    // backoff 2), passes 4-5 cool down, attempt on pass 6 exhausts the
    // budget → Failed.
    let mut failed_pass = None;
    for pass_no in 1..=6 {
        let pass = supervisor.tick();
        assert!(pass.recovered.is_empty(), "pass {pass_no} must not recover");
        if !pass.failed.is_empty() {
            failed_pass = Some(pass_no);
            break;
        }
    }
    assert_eq!(
        failed_pass,
        Some(6),
        "budget must exhaust on pass 6 exactly"
    );
    assert!(fleet.health(&b).unwrap().is_failed());
    assert_eq!(fleet.stats().failed, 1);
    // Failed tenants error like quarantined ones and are skipped by fleet
    // checkpoints.
    assert!(matches!(
        fleet.process_batch(&b, &pts),
        Err(SpotError::TenantPoisoned { .. })
    ));
    assert!(fleet.checkpoint().is_empty());
    // A later supervision pass leaves a Failed tenant alone.
    let pass = supervisor.tick();
    assert!(pass.recovered.is_empty() && pass.failed.is_empty());

    // Manual revive is the operator's escape hatch out of Failed.
    fleet.disarm_faults();
    assert_eq!(fleet.revive_tenant(&b).unwrap(), 0);
    assert!(fleet.health(&b).unwrap().is_healthy());
    assert_eq!(fleet.process_batch(&b, &pts).unwrap().len(), pts.len());
}

#[test]
fn recovery_retries_through_backoff_and_reports_the_schedule() {
    let dims = 3;
    let train = training(120, dims, 9);
    let fleet = SpotFleet::new(FleetConfig::default());
    let b = tid("retrying");
    fleet.register(b.clone(), tenant_config(4, dims)).unwrap();
    fleet.learn(&b, &train).unwrap();
    let supervisor = Supervisor::new(fleet.clone(), SupervisorConfig { shadow_every: 1000 });
    supervisor.tick();
    fleet.arm_faults(
        FaultPlan::new()
            .panic_at(b.clone(), 0)
            .fail_recovery(b.clone(), 2),
    );
    assert!(fleet.process_batch(&b, &stream(5, dims, 4)).is_err());

    // Passes 1 (fail, backoff 1), 2 (cooldown), 3 (fail, backoff 2),
    // 4-5 (cooldown), 6 (success on the third attempt).
    let mut report = None;
    for _ in 1..=6 {
        let pass = supervisor.tick();
        if let Some(r) = pass.recovered.first() {
            report = Some(r.clone());
        }
    }
    let report = report.expect("third attempt must succeed");
    assert_eq!(report.attempts, 3);
    assert_eq!(report.backoff, vec![1, 2]);
    assert_eq!(supervisor.last_recovery(&b).unwrap().attempts, 3);
    assert!(fleet.health(&b).unwrap().is_healthy());
}

#[test]
fn quarantined_tenants_are_excluded_from_fleet_checkpoints() {
    let dims = 3;
    let train = training(120, dims, 7);
    let fleet = SpotFleet::new(FleetConfig::default());
    let a = tid("kept");
    let b = tid("poisoned");
    for (id, seed) in [(&a, 1u64), (&b, 2)] {
        fleet
            .register(id.clone(), tenant_config(seed, dims))
            .unwrap();
        fleet.learn(id, &train).unwrap();
    }
    fleet.arm_faults(FaultPlan::new().panic_at(b.clone(), 0));
    assert!(fleet.process_batch(&b, &stream(3, dims, 2)).is_err());

    let cp = fleet.checkpoint();
    assert_eq!(
        cp.tenant_ids(),
        vec![a.clone()],
        "torn state must not be captured"
    );
    assert!(matches!(
        fleet.checkpoint_tenant(&b),
        Err(SpotError::TenantPoisoned { .. })
    ));
    assert!(fleet.checkpoint_tenant(&a).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos: a random fault plan (panic ordinal, faulted tenant, chunk
    /// size, shadow cadence) over a multi-tenant fleet.
    /// Unaffected tenants are bit-identical to standalone; the recovered
    /// tenant, replaying from its reported shadow position, converges to
    /// the uninterrupted verdict stream.
    #[test]
    fn chaos_random_fault_plans_isolate_and_converge(
        seeds in proptest::collection::vec(0u64..500, 2..4),
        faulted_idx in 0usize..4,
        panic_ordinal in 0u64..180,
        chunk in 13usize..53,
        shadow_every in 20u64..120,
    ) {
        let dims = 4;
        let n = 180usize;
        let train = training(130, dims, 17);
        let faulted_idx = faulted_idx % seeds.len();
        let fleet = SpotFleet::new(FleetConfig::default());
        let ids: Vec<TenantId> = (0..seeds.len())
            .map(|i| TenantId::new(format!("c{i}")).unwrap())
            .collect();
        for (id, seed) in ids.iter().zip(&seeds) {
            fleet.register(id.clone(), tenant_config(*seed, dims)).unwrap();
            fleet.learn(id, &train).unwrap();
        }
        let supervisor = Supervisor::new(
            fleet.clone(),
            SupervisorConfig { shadow_every },
        );
        supervisor.tick();
        let faulted = &ids[faulted_idx];
        fleet.arm_faults(FaultPlan::new().panic_at(faulted.clone(), panic_ordinal));

        let mut delivered: Vec<Vec<Verdict>> = vec![Vec::new(); ids.len()];
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            for (t, (id, seed)) in ids.iter().zip(&seeds).enumerate() {
                let pts = stream(n, dims, *seed);
                match fleet.process_batch(id, &pts[start..end]) {
                    Ok(vs) => delivered[t].extend(vs),
                    Err(e) => {
                        prop_assert_eq!(id, faulted);
                        prop_assert!(matches!(e, SpotError::TenantPoisoned { .. }));
                    }
                }
            }
            // Roll shadows while healthy; once the fault fires, hold off
            // recovery until the drive is over (a producer must re-feed
            // the lost window from the reported position, which this
            // chunked loop does below, not mid-flight).
            if fleet.health(faulted).unwrap().is_healthy() {
                supervisor.tick();
            }
        }
        // Recovery happens on the first post-drive pass (no scripted
        // recovery failures, so no backoff to wait out).
        let pass = supervisor.tick();
        prop_assert_eq!(pass.recovered.len(), 1);

        // Co-tenants: bit-identical to a fault-free run.
        for (t, (id, seed)) in ids.iter().zip(&seeds).enumerate() {
            if id == faulted {
                continue;
            }
            let pts = stream(n, dims, *seed);
            let want = standalone_verdicts(*seed, dims, &train, &pts);
            assert_same_verdicts(&want, &delivered[t], &format!("chaos co-tenant {id}"));
        }

        // The faulted tenant recovered within the budget…
        prop_assert!(fleet.health(faulted).unwrap().is_healthy());
        let report = supervisor.last_recovery(faulted).expect("must have recovered");
        prop_assert_eq!(report.attempts, 1);
        // …and replaying from the shadow position converges bit-for-bit.
        let seed = seeds[faulted_idx];
        let pts = stream(n, dims, seed);
        let want = standalone_verdicts(seed, dims, &train, &pts);
        let from = report.processed_at_shadow as usize;
        let replayed = fleet.process_batch(faulted, &pts[from..]).unwrap();
        assert_same_verdicts(&want[from..], &replayed, "chaos recovered tenant");
        prop_assert_eq!(fleet.stats().quarantined, 0);
    }
}
