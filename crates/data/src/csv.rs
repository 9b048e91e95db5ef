//! Dataset persistence.
//!
//! Labeled streams round-trip through a small CSV dialect
//! (`seq,category,subspace_mask,v0,v1,…`) written with buffered I/O.

use spot_types::{AnomalyInfo, DataPoint, Label, LabeledRecord, Result, SpotError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes labeled records as CSV (with a header row).
pub fn write_csv<W: Write>(w: W, records: &[LabeledRecord]) -> Result<()> {
    let mut w = BufWriter::new(w);
    let dims = records.first().map_or(0, |r| r.point.dims());
    write!(w, "seq,category,subspace_mask")?;
    for d in 0..dims {
        write!(w, ",v{d}")?;
    }
    writeln!(w)?;
    for r in records {
        let (category, mask) = match &r.label {
            Label::Normal => ("normal", 0u64),
            Label::Anomaly(info) => (info.category.as_str(), info.true_subspace.unwrap_or(0)),
        };
        if category.contains(',') {
            return Err(SpotError::Io(format!(
                "category {category:?} contains a comma"
            )));
        }
        write!(w, "{},{},{}", r.seq, category, mask)?;
        for v in r.point.values() {
            write!(w, ",{v}")?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads labeled records from the CSV dialect produced by [`write_csv`].
pub fn read_csv<R: Read>(r: R) -> Result<Vec<LabeledRecord>> {
    let mut lines = BufReader::new(r).lines();
    let header = lines
        .next()
        .ok_or_else(|| SpotError::Io("empty CSV".into()))?
        .map_err(SpotError::from)?;
    let dims = header.split(',').skip(3).count();
    let mut out = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(SpotError::from)?;
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let seq: u64 = parse(parts.next(), lineno, "seq")?;
        let category = parts
            .next()
            .ok_or_else(|| bad(lineno, "category"))?
            .to_string();
        let mask: u64 = parse(parts.next(), lineno, "subspace_mask")?;
        let vals: Vec<f64> = parts
            .map(|t| t.parse::<f64>().map_err(|_| bad(lineno, "value")))
            .collect::<Result<_>>()?;
        if vals.len() != dims {
            return Err(SpotError::Io(format!(
                "line {}: expected {dims} values, got {}",
                lineno + 2,
                vals.len()
            )));
        }
        let label = if category == "normal" {
            Label::Normal
        } else if mask == 0 {
            Label::Anomaly(AnomalyInfo::category(category))
        } else {
            Label::Anomaly(AnomalyInfo::with_subspace(category, mask))
        };
        out.push(LabeledRecord::new(seq, DataPoint::new(vals), label));
    }
    Ok(out)
}

/// Saves records to a file path.
pub fn save_csv(path: impl AsRef<Path>, records: &[LabeledRecord]) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_csv(f, records)
}

/// Loads records from a file path.
pub fn load_csv(path: impl AsRef<Path>) -> Result<Vec<LabeledRecord>> {
    let f = std::fs::File::open(path)?;
    read_csv(f)
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, lineno: usize, what: &str) -> Result<T> {
    tok.ok_or_else(|| bad(lineno, what))?
        .parse::<T>()
        .map_err(|_| bad(lineno, what))
}

fn bad(lineno: usize, what: &str) -> SpotError {
    SpotError::Io(format!("line {}: malformed {what}", lineno + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticConfig, SyntheticGenerator};

    #[test]
    fn roundtrip_preserves_records() {
        let mut g = SyntheticGenerator::new(SyntheticConfig {
            dims: 4,
            outlier_fraction: 0.2,
            ..Default::default()
        })
        .unwrap();
        let recs = g.generate(50);
        let mut buf = Vec::new();
        write_csv(&mut buf, &recs).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(recs.len(), back.len());
        for (a, b) in recs.iter().zip(back.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.label, b.label);
            for (x, y) in a.point.values().iter().zip(b.point.values()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_input_fails_cleanly() {
        assert!(read_csv(&b""[..]).is_err());
    }

    #[test]
    fn header_only_yields_no_records() {
        let recs = read_csv(&b"seq,category,subspace_mask,v0\n"[..]).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn malformed_rows_error_with_line_numbers() {
        let data = b"seq,category,subspace_mask,v0\nnot_a_number,normal,0,1.5\n";
        let err = read_csv(&data[..]).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let data = b"seq,category,subspace_mask,v0\n1,normal,0,1.5,9.9\n";
        assert!(read_csv(&data[..]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("spot-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        let recs = vec![LabeledRecord::new(
            0,
            DataPoint::new(vec![0.25, 0.5]),
            Label::Anomaly(AnomalyInfo::with_subspace("dos", 0b11)),
        )];
        save_csv(&path, &recs).unwrap();
        let back = load_csv(&path).unwrap();
        assert_eq!(back[0].label.category(), "dos");
        std::fs::remove_file(&path).ok();
    }
}
