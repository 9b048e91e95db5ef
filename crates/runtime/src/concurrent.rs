//! One detector shared by many threads.
//!
//! A fleet tenant is the only shared detector: any number of threads may
//! call into it, and its lock serialises them. These tests pin what that
//! sharing must preserve — every point ingested exactly once with its own
//! tick, and chunked batches bit-identical to one sequential `Spot`.

mod tests {
    use crate::fleet::{FleetConfig, SpotFleet};
    use spot::{EvolutionConfig, Spot, SpotBuilder, SpotConfig, Verdict};
    use spot_types::{DataPoint, DomainBounds, TenantId};
    use std::sync::Arc;

    fn tid(name: &str) -> TenantId {
        TenantId::new(name).unwrap()
    }

    fn train() -> Vec<DataPoint> {
        (0..200)
            .map(|i| DataPoint::new(vec![0.4 + (i % 10) as f64 * 0.01; 4]))
            .collect()
    }

    fn stream(n: usize, dims: usize) -> Vec<DataPoint> {
        (0..n)
            .map(|i| {
                DataPoint::new(
                    (0..dims)
                        .map(|d| ((i * (d + 3) + 7 * d) % 23) as f64 / 23.0)
                        .collect(),
                )
            })
            .collect()
    }

    /// Periodic evolution and pruning both land inside the test streams,
    /// so the batch path has to split runs at maintenance boundaries
    /// exactly like the sequential detector.
    fn maintenance_heavy(seed: u64) -> SpotConfig {
        SpotBuilder::new(DomainBounds::unit(4))
            .seed(seed)
            .evolution(EvolutionConfig {
                period: 90,
                ..Default::default()
            })
            .pruning(70, 1e-4)
            .build_config()
            .unwrap()
    }

    fn fleet_of(config: SpotConfig) -> (SpotFleet, TenantId) {
        let fleet = SpotFleet::new(FleetConfig {
            queue_capacity: 64,
            micro_batch: 50,
        });
        let a = tid("a");
        fleet.register(a.clone(), config).unwrap();
        fleet.learn(&a, &train()).unwrap();
        (fleet, a)
    }

    #[test]
    fn shared_processing_across_threads() {
        let config = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build_config()
            .unwrap();
        let (fleet, a) = fleet_of(config);

        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let (fleet, a) = (fleet.clone(), a.clone());
                std::thread::spawn(move || {
                    let mut outliers = 0;
                    for i in 0..100 {
                        let v = 0.4 + ((i + t) % 10) as f64 * 0.01;
                        if fleet
                            .process(&a, &DataPoint::new(vec![v; 4]))
                            .unwrap()
                            .outlier
                        {
                            outliers += 1;
                        }
                    }
                    outliers
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fleet.tenant_stats(&a).unwrap().processed, 400);
        assert!(fleet.tenant_footprint(&a).unwrap().projected_cells > 0);
    }

    #[test]
    fn shared_batches_match_sequential_processing_bitwise() {
        let pts = stream(400, 4);
        let mut reference = Spot::new(maintenance_heavy(11)).unwrap();
        reference.learn(&train()).unwrap();
        let want: Vec<Verdict> = pts.iter().map(|p| reference.process(p).unwrap()).collect();

        let (fleet, a) = fleet_of(maintenance_heavy(11));
        let mut got = Vec::new();
        for chunk in pts.chunks(57) {
            got.extend(fleet.process_batch(&a, chunk).unwrap());
        }
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.tick, g.tick);
            assert_eq!(w.outlier, g.outlier, "tick {}", w.tick);
            assert_eq!(w.score.to_bits(), g.score.to_bits(), "tick {}", w.tick);
            assert_eq!(w.findings, g.findings, "tick {}", w.tick);
        }
        assert_eq!(fleet.tenant_stats(&a).unwrap(), *reference.stats());
        assert_eq!(fleet.tenant_footprint(&a).unwrap(), reference.footprint());
        assert_eq!(
            fleet.with_tenant(&a, |s| s.footprint()).unwrap(),
            reference.footprint()
        );
    }

    #[test]
    fn concurrent_producers_ingest_every_point_once() {
        let (fleet, a) = fleet_of(maintenance_heavy(7));
        let pts = Arc::new(stream(600, 4));
        let handles: Vec<_> = (0..3usize)
            .map(|t| {
                let (fleet, a, pts) = (fleet.clone(), a.clone(), Arc::clone(&pts));
                std::thread::spawn(move || {
                    let mut ticks = Vec::new();
                    for chunk in pts[t * 200..(t + 1) * 200].chunks(40) {
                        if t == 0 {
                            // One producer goes point by point.
                            for p in chunk {
                                ticks.push(fleet.process(&a, p).unwrap().tick);
                            }
                        } else {
                            for v in fleet.process_batch(&a, chunk).unwrap() {
                                ticks.push(v.tick);
                            }
                        }
                    }
                    ticks
                })
            })
            .collect();
        let mut all_ticks: Vec<u64> = Vec::new();
        for h in handles {
            all_ticks.extend(h.join().unwrap());
        }
        all_ticks.sort_unstable();
        // Every point got a unique consecutive tick (after the 200
        // training ticks), regardless of producer interleaving.
        let want: Vec<u64> = (201..801).collect();
        assert_eq!(all_ticks, want);
        let (stats, footprint) = fleet
            .with_tenant(&a, |s| (*s.stats(), s.footprint()))
            .unwrap();
        assert_eq!(stats.processed, 600);
        assert_eq!(fleet.tenant_stats(&a).unwrap(), stats);
        assert_eq!(fleet.tenant_footprint(&a).unwrap(), footprint);
    }
}
