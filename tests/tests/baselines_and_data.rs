//! Cross-crate checks on the baselines and the data substrates.

use spot_baselines::window_knn::{WindowKnnConfig, WindowKnnDetector};
use spot_baselines::{brute_force_top_k, RandomSubspaceDetector};
use spot_data::{AttackKind, KddConfig, KddGenerator, SyntheticConfig, SyntheticGenerator};
use spot_moga::{MogaConfig, SubspaceProblem};
use spot_types::{DomainBounds, StreamDetector};

#[test]
fn window_knn_catches_global_outliers_in_kdd_stream() {
    let mut g = KddGenerator::new(KddConfig {
        attack_fraction: 0.05,
        ..Default::default()
    })
    .unwrap();
    let train = g.generate_normal(800);
    let mut knn = WindowKnnDetector::new(WindowKnnConfig {
        window: 800,
        k: 4,
        radius: 0.35,
    })
    .unwrap();
    StreamDetector::learn(&mut knn, &train).unwrap();
    let mut caught = 0;
    let mut total = 0;
    for r in g.generate(3000) {
        let d = knn.process(&r.point);
        if r.is_anomaly() {
            total += 1;
            if d.outlier {
                caught += 1;
            }
        }
    }
    assert!(total > 50);
    // DoS attacks deviate in 3 of 20 dims — enough Euclidean displacement
    // for kNN to catch a decent share, though not all.
    assert!(caught > total / 4, "caught {caught}/{total}");
}

#[test]
fn random_subspaces_underperform_spot_on_subspace_recovery() {
    // Sanity: the random-subspace detector runs end-to-end on the
    // synthetic stream and produces a plausible outlier rate.
    let config = SyntheticConfig {
        dims: 12,
        outlier_fraction: 0.03,
        seed: 3,
        ..Default::default()
    };
    let mut g = SyntheticGenerator::new(config).unwrap();
    let train = g.generate_normal(1000);
    let mut det = RandomSubspaceDetector::new(
        DomainBounds::unit(12),
        spot_baselines::random_subspace::RandomSubspaceConfig::default(),
    )
    .unwrap();
    StreamDetector::learn(&mut det, &train).unwrap();
    let mut flagged = 0;
    let records = g.generate(2000);
    for r in &records {
        if det.process(&r.point).outlier {
            flagged += 1;
        }
    }
    let rate = flagged as f64 / records.len() as f64;
    assert!(
        rate < 0.5,
        "random-subspace detector flags {rate:.2} of stream"
    );
}

/// Sparsity problem on real generator data, reused by the MOGA-vs-brute
/// check below.
struct KddSparsity {
    evaluator: spot::TrainingEvaluator,
    target: usize,
}

impl SubspaceProblem for KddSparsity {
    fn phi(&self) -> usize {
        self.evaluator.grid().dims()
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&mut self, s: spot_subspace::Subspace, out: &mut [f64]) {
        let (rd, irsd) = self.evaluator.sparsity(s, Some(&[self.target]));
        out.copy_from_slice(&[rd, irsd]);
    }
    fn max_cardinality(&self) -> Option<usize> {
        Some(3)
    }
}

#[test]
fn moga_matches_brute_force_on_attack_explanation() {
    // Take a DoS exemplar; both searches must agree that some subset of its
    // signature dims {11,12,13} is among the sparsest subspaces.
    let mut g = KddGenerator::new(KddConfig::default()).unwrap();
    let mut pts = g.generate_normal(600);
    let target = pts.len();
    pts.push(g.attack_exemplar(AttackKind::Dos));
    let grid = spot_synopsis::Grid::new(DomainBounds::unit(20), 10).unwrap();
    let evaluator = spot::TrainingEvaluator::new(grid, &pts).unwrap();

    let signature = AttackKind::Dos.subspace();
    let hits_signature = |subs: &[spot_subspace::Subspace]| {
        subs.iter().any(|s| s.intersection(&signature).is_some())
    };

    let mut problem = KddSparsity {
        evaluator: evaluator.clone(),
        target,
    };
    let brute = brute_force_top_k(&mut problem, 2).unwrap();
    let brute_top: Vec<_> = brute.top_k(5).into_iter().map(|(s, _)| s).collect();
    assert!(
        hits_signature(&brute_top),
        "brute-force top-5 misses the signature: {brute_top:?}"
    );

    let mut problem = KddSparsity { evaluator, target };
    let moga = spot_moga::run(&mut problem, &MogaConfig::default()).unwrap();
    let moga_top: Vec<_> = moga.top_k(5).into_iter().map(|(s, _)| s).collect();
    assert!(
        hits_signature(&moga_top),
        "MOGA top-5 misses the signature: {moga_top:?}"
    );
}

#[test]
fn csv_roundtrip_through_files() {
    let mut g = SyntheticGenerator::new(SyntheticConfig {
        dims: 6,
        outlier_fraction: 0.1,
        seed: 77,
        ..Default::default()
    })
    .unwrap();
    let records = g.generate(200);
    let dir = std::env::temp_dir().join("spot-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.csv");
    spot_data::csv::save_csv(&path, &records).unwrap();
    let back = spot_data::csv::load_csv(&path).unwrap();
    assert_eq!(records.len(), back.len());
    let anomalies = |rs: &[spot_types::LabeledRecord]| rs.iter().filter(|r| r.is_anomaly()).count();
    assert_eq!(anomalies(&records), anomalies(&back));
    std::fs::remove_file(&path).ok();
}
