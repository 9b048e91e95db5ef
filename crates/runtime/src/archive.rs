//! Columnar append-only verdict archive.
//!
//! Checkpoints preserve *engine state*; the verdict stream itself — what
//! was flagged, when, in which subspaces — is gone unless something
//! records it. [`VerdictArchive`] is that something: a segment log
//! ([`spot_types::framed`], the ingestion WAL's file kind, with its
//! torn-tail, resume and rotation rules) of `arc-<n:08>.seg` files opening
//! with `SPOTARC1` and version 2, each frame one batch of verdicts in
//! column order, every lane a `u64` LE word (floats by their IEEE-754
//! bits, so [`VerdictArchive::replay`] is bit-exact by construction):
//!
//! ```text
//! n | total_findings
//! ticks[n] | flags[n] | score_bits[n] | finding_counts[n]
//! masks[total] | rd_bits[total] | irsd_bits[total]
//! ```
//!
//! `flags` packs `outlier` in bit 0 and `drift` in bit 1. The findings of
//! record `i` are the next `finding_counts[i]` entries of the flattened
//! finding columns, in each verdict's sparsest-first order.
//!
//! Replay keeps every frame before a torn tail and reports `torn_tail`;
//! [`VerdictArchive::open`] cuts that residue off before it appends.
//! Sealed damage, a foreign header (a version-1 segment, sealed with
//! FNV-1a, included) or a frame that checksums but does not decode is
//! [`SpotError::SnapshotCorrupt`]. Fleet recovery does **not** read the
//! archive — it replays the ingestion WAL, which regenerates these same
//! verdicts; the archive serves consumers *outside* the engine (audit,
//! backtesting, alert forensics).

use spot::subspace::Subspace;
use spot::{SubspaceFinding, Verdict};
use spot_types::framed::{self, io_err, Schema, SegmentWriter};
use spot_types::{Result, SpotError};
use std::path::{Path, PathBuf};

/// Magic bytes opening every archive segment.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"SPOTARC1";

/// Archive segment format version (2: frames sealed with the segment
/// log's word-wise checksum; 1 used byte-wise FNV-1a).
pub const ARCHIVE_VERSION: u32 = 2;

/// The archive's segment log: `arc-<n:08>.seg`, no header frames.
static ARCHIVE_LOG: Schema = Schema {
    prefix: "arc",
    magic: *ARCHIVE_MAGIC,
    version: ARCHIVE_VERSION,
    header_frames: 0,
    corrupt: SpotError::SnapshotCorrupt,
};

/// Default segment rotation threshold (bytes): a segment holding a frame
/// is sealed before an append would push it past this.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// An append-only columnar verdict log over a directory of segment
/// files. One writer at a time; readers ([`VerdictArchive::replay`])
/// operate on the directory independently.
#[derive(Debug)]
pub struct VerdictArchive {
    segment_bytes: u64,
    log: SegmentWriter,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
}

/// Everything [`VerdictArchive::replay`] reconstructed.
#[derive(Debug)]
pub struct ArchiveReplay {
    /// The archived verdict stream, in append order.
    pub verdicts: Vec<Verdict>,
    /// Live segment files read.
    pub segments: usize,
    /// Complete frames decoded.
    pub frames: usize,
    /// `true` when the log ended in crash residue that was dropped (a torn
    /// tail, or a segment cut inside its prefix) — not corruption.
    pub torn_tail: bool,
}

impl VerdictArchive {
    /// Opens (creating if needed) an archive directory for appending with
    /// the default rotation threshold. Appends continue the highest
    /// existing segment, or start `arc-00000001.seg`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`VerdictArchive::open`] with an explicit rotation threshold (1
    /// gives every frame its own segment). Only the final segment is read:
    /// its torn tail is cut off, and files a crash mid-rotation left are
    /// deleted, before anything is appended.
    pub fn open_with(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        let mut scratch = Vec::new();
        let scan = framed::scan(&dir, &ARCHIVE_LOG, true, |_, _, payload| {
            scratch.clear();
            decode_frame(payload, &mut scratch)
        })?;
        Ok(VerdictArchive {
            segment_bytes,
            log: SegmentWriter::resume(&dir, ARCHIVE_LOG, &scan, &[])?,
            frame: Vec::new(),
        })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// Appends one batch of verdicts as a single frame, rotating to a new
    /// segment first when the frame would push the current one past the
    /// threshold. An empty batch is a no-op. Data is buffered by the OS
    /// until [`VerdictArchive::sync`].
    pub fn append(&mut self, verdicts: &[Verdict]) -> Result<()> {
        if verdicts.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        framed::put_frame(&mut self.frame, |out| encode_columns(verdicts, out))?;
        if self.log.rotation_due(self.frame.len(), self.segment_bytes) {
            self.log.rotate(&[])?;
        }
        self.log.write(&self.frame)
    }

    /// Syncs the tail segment — after this returns, every appended frame
    /// survives a crash.
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Reads an archive directory back into the verdict stream it
    /// recorded. Requires no open writer; see the module docs for the
    /// torn-tail vs corruption policy.
    pub fn replay(dir: impl AsRef<Path>) -> Result<ArchiveReplay> {
        let (mut verdicts, mut frames) = (Vec::new(), 0);
        let scan = framed::scan(dir.as_ref(), &ARCHIVE_LOG, false, |_, _, payload| {
            frames += 1;
            decode_frame(payload, &mut verdicts)
        })?;
        Ok(ArchiveReplay {
            verdicts,
            segments: scan.segments.len(),
            frames,
            torn_tail: scan.torn(),
        })
    }
}

fn encode_columns(verdicts: &[Verdict], out: &mut Vec<u8>) {
    let total: usize = verdicts.iter().map(|v| v.findings.len()).sum();
    out.reserve(16 + 8 * (4 * verdicts.len() + 3 * total));
    let mut put = |w: u64| out.extend_from_slice(&w.to_le_bytes());
    put(verdicts.len() as u64);
    put(total as u64);
    for v in verdicts {
        put(v.tick);
    }
    for v in verdicts {
        put(u64::from(v.outlier) | u64::from(v.drift) << 1);
    }
    for v in verdicts {
        put(v.score.to_bits());
    }
    for v in verdicts {
        put(v.findings.len() as u64);
    }
    for v in verdicts {
        for f in &v.findings {
            put(f.subspace.mask());
        }
    }
    for v in verdicts {
        for f in &v.findings {
            put(f.rd.to_bits());
        }
    }
    for v in verdicts {
        for f in &v.findings {
            put(f.irsd.to_bits());
        }
    }
}

fn decode_frame(payload: &[u8], out: &mut Vec<Verdict>) -> std::result::Result<(), String> {
    if !payload.len().is_multiple_of(8) || payload.len() < 16 {
        return Err("payload is not a whole number of column words".into());
    }
    let words: Vec<u64> = payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect();
    let n = words[0] as usize;
    let total = words[1] as usize;
    let expect = 2usize
        .checked_add(n.checked_mul(4).ok_or("count overflow")?)
        .and_then(|x| x.checked_add(total.checked_mul(3)?))
        .ok_or("count overflow")?;
    if words.len() != expect {
        return Err("column lengths do not match declared counts".into());
    }
    let (ticks, rest) = words[2..].split_at(n);
    let (flags, rest) = rest.split_at(n);
    let (scores, rest) = rest.split_at(n);
    let (counts, rest) = rest.split_at(n);
    let (masks, rest) = rest.split_at(total);
    let (rds, irsds) = rest.split_at(total);
    if counts.iter().sum::<u64>() != total as u64 {
        return Err("finding counts do not sum to the flattened total".into());
    }
    let mut at = 0usize;
    for i in 0..n {
        let k = counts[i] as usize;
        let mut findings = Vec::with_capacity(k);
        for j in at..at + k {
            findings.push(SubspaceFinding {
                subspace: Subspace::from_mask(masks[j])
                    .map_err(|e| format!("finding mask: {e}"))?,
                rd: f64::from_bits(rds[j]),
                irsd: f64::from_bits(irsds[j]),
            });
        }
        at += k;
        if flags[i] > 0b11 {
            return Err("unknown flag bits set".into());
        }
        out.push(Verdict {
            tick: ticks[i],
            outlier: flags[i] & 1 != 0,
            score: f64::from_bits(scores[i]),
            findings,
            drift: flags[i] & 2 != 0,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spot-arc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(tick: u64, findings: usize) -> Verdict {
        Verdict {
            tick,
            outlier: findings > 0,
            score: 1.0 / (1.0 + tick as f64 * 0.125),
            findings: (0..findings)
                .map(|i| SubspaceFinding {
                    subspace: Subspace::from_mask(1 << (i % 7) | 1 << 9).unwrap(),
                    rd: 0.25 + i as f64 * 0.5,
                    irsd: f64::from_bits(0x3FF0_0000_0000_0001 + i as u64),
                })
                .collect(),
            drift: tick.is_multiple_of(5),
        }
    }

    fn assert_stream_eq(want: &[Verdict], got: &[Verdict]) {
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(got) {
            assert!(w.bitwise_eq(g), "verdict at tick {} diverged", w.tick);
        }
    }

    #[test]
    fn replay_reproduces_the_appended_stream_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let want: Vec<Verdict> = (1..=257).map(|t| sample(t, (t % 4) as usize)).collect();
        {
            let mut arc = VerdictArchive::open(&dir).unwrap();
            for chunk in want.chunks(17) {
                arc.append(chunk).unwrap();
            }
            arc.append(&[]).unwrap(); // no-op
            arc.sync().unwrap();
        }
        let replay = VerdictArchive::replay(&dir).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.segments, 1);
        assert_eq!(replay.frames, want.len().div_ceil(17));
        assert_stream_eq(&want, &replay.verdicts);
    }

    #[test]
    fn appends_rotate_segments_and_survive_reopen() {
        let dir = temp_dir("rotate");
        let want: Vec<Verdict> = (1..=64).map(|t| sample(t, 2)).collect();
        {
            // Tiny threshold: every append lands in a fresh segment.
            let mut arc = VerdictArchive::open_with(&dir, 64).unwrap();
            for chunk in want[..32].chunks(8) {
                arc.append(chunk).unwrap();
            }
            arc.sync().unwrap();
        }
        {
            // Reopen continues the tail segment.
            let mut arc = VerdictArchive::open_with(&dir, 64).unwrap();
            for chunk in want[32..].chunks(8) {
                arc.append(chunk).unwrap();
            }
            arc.sync().unwrap();
        }
        let replay = VerdictArchive::replay(&dir).unwrap();
        assert!(replay.segments > 1, "rotation never happened");
        assert!(!replay.torn_tail);
        assert_stream_eq(&want, &replay.verdicts);
    }
}
