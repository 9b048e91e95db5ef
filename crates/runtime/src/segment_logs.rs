//! Tests shared by the two segment logs: the ingestion WAL
//! ([`crate::wal::FleetWal`] over `spot_stream::wal`) and the verdict
//! archive ([`crate::VerdictArchive`]).

use crate::archive::VerdictArchive;
use crate::wal::{FleetWal, WalTuning};
use spot::subspace::Subspace;
use spot::{SubspaceFinding, Verdict};
use spot_types::persist::binary::checksum64;
use spot_types::{DataPoint, Result, SpotError, TenantId};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spot-seglog-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tid(s: &str) -> TenantId {
    TenantId::new(s).expect("valid tenant id")
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

/// The bytes of every `<prefix>*.seg` file in `dir`, in segment order.
fn segments(dir: &Path, prefix: &str) -> Vec<Vec<u8>> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with(prefix) && n.ends_with(".seg"))
        .collect();
    names.sort();
    let read = |n: &String| std::fs::read(dir.join(n)).unwrap();
    names.iter().map(read).collect()
}

/// The bytes a fixed WAL sequence and a fixed run of archive appends
/// produce are pinned to constants taken before the two logs shared their
/// segment code: attach, interleaved records of two tenants, one
/// rotation, evict; and archive batches of varied finding counts. The
/// archive's constant covers its frame stream (every segment after its
/// 12-byte prefix), whose segment boundaries follow the rotation rule.
#[test]
fn both_logs_write_the_bytes_they_always_wrote() {
    let dir = temp_dir("golden-wal");
    let tuning = WalTuning {
        sync_every: 4,
        segment_bytes: 500,
    };
    let (a, b) = (tid("alpha"), tid("b"));
    {
        let (wal, _) = FleetWal::open(&dir, tuning, |_| false).unwrap();
        wal.attach(&a, 7).unwrap();
        wal.attach(&b, 0).unwrap();
        for i in 0..6u64 {
            let x = i as f64 * 0.1;
            let pa = DataPoint::new(vec![x, -0.0, f64::MIN_POSITIVE / 2.0]);
            wal.append(&a, &pa).unwrap();
            let pb = DataPoint::new(vec![1.0 - x, f64::INFINITY, 3.5]);
            wal.append(&b, &pb).unwrap();
        }
        wal.evict(&b).unwrap();
        assert_eq!(wal.segment_count(), 2, "exactly one rotation");
    }
    let digests: Vec<_> = segments(&dir, "wal-")
        .iter()
        .map(|b| (b.len(), checksum64(b)))
        .collect();
    assert_eq!(
        digests,
        [(477, 752709172820919583), (355, 13797172837049649776)]
    );

    let arc_dir = temp_dir("golden-arc");
    {
        let mut arc = VerdictArchive::open_with(&arc_dir, 2000).unwrap();
        for (k, chunk) in (1..=90u64)
            .map(|t| sample(t, (t % 4) as usize))
            .collect::<Vec<_>>()
            .chunks(13)
            .enumerate()
        {
            arc.append(chunk).unwrap();
            if k == 2 {
                arc.append(&[]).unwrap();
            }
        }
        arc.sync().unwrap();
    }
    let arc_segments = segments(&arc_dir, "arc-");
    let mut frames = Vec::new();
    for bytes in &arc_segments {
        assert_eq!(&bytes[..12], b"SPOTARC1\x02\x00\x00\x00");
        frames.extend_from_slice(&bytes[12..]);
    }
    assert!(arc_segments.len() > 1, "the archive rotated");
    assert_eq!(
        (frames.len(), checksum64(&frames)),
        (6316, 12953133689930392337)
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&arc_dir);
}

fn assert_stream_eq(want: &[Verdict], got: &[Verdict]) {
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(got) {
        assert!(w.bitwise_eq(g), "verdict at tick {} diverged", w.tick);
    }
}

/// Appends `verdicts` in frames of 5 and syncs.
fn append_all(arc: &mut VerdictArchive, verdicts: &[Verdict]) {
    for chunk in verdicts.chunks(5) {
        arc.append(chunk).unwrap();
    }
    arc.sync().unwrap();
}

fn wanted() -> Vec<Verdict> {
    (1..=40).map(|t| sample(t, (t % 3) as usize)).collect()
}

/// Appends 20 verdicts, cuts 5 bytes off the final frame, reopens (with
/// the threshold `reopen_bytes`) and appends 20 more: replay gives the 15
/// before the tear, then all 20 since.
fn reopen_after_a_torn_tail(tag: &str, reopen_bytes: u64) -> usize {
    let (dir, want) = (temp_dir(tag), wanted());
    append_all(&mut VerdictArchive::open(&dir).unwrap(), &want[..20]);
    let seg = dir.join("arc-00000001.seg");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
    let mut arc = VerdictArchive::open_with(&dir, reopen_bytes).unwrap();
    append_all(&mut arc, &want[20..]);
    drop(arc);
    let replay = VerdictArchive::replay(&dir).unwrap();
    assert!(!replay.torn_tail);
    let kept: Vec<Verdict> = want[..15].iter().chain(&want[20..]).cloned().collect();
    assert_stream_eq(&kept, &replay.verdicts);
    let _ = std::fs::remove_dir_all(&dir);
    replay.segments
}

#[test]
fn a_reopened_archive_appends_after_a_torn_tail() {
    assert_eq!(reopen_after_a_torn_tail("reopen-torn", 1 << 20), 1);
}

#[test]
fn a_reopened_archive_appends_and_rotates_after_a_torn_tail() {
    assert!(reopen_after_a_torn_tail("reopen-torn-rotate", 64) > 1);
}

#[test]
fn a_reopened_archive_appends_after_a_torn_rotation() {
    let (dir, want) = (temp_dir("reopen-rotation"), wanted());
    append_all(&mut VerdictArchive::open(&dir).unwrap(), &want[..20]);
    // A crash mid-rotation left the next segment shorter than its prefix.
    std::fs::write(dir.join("arc-00000002.seg"), b"SPOT").unwrap();
    let replay = VerdictArchive::replay(&dir).unwrap();
    assert!(replay.torn_tail);
    assert_stream_eq(&want[..20], &replay.verdicts);
    append_all(&mut VerdictArchive::open(&dir).unwrap(), &want[20..]);
    let replay = VerdictArchive::replay(&dir).unwrap();
    assert!(!replay.torn_tail);
    assert_stream_eq(&want, &replay.verdicts);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- one torn-write matrix for both logs --------------------------------

/// A segment log under test. Record `i` is the WAL point `[i]` of tenant
/// `a`, or the archive verdict at tick `i`; a replay reads the ids back.
#[derive(Debug, Clone, Copy)]
enum Log {
    Wal,
    Archive,
}

const BOTH: [Log; 2] = [Log::Wal, Log::Archive];

impl Log {
    fn prefix(self) -> &'static str {
        match self {
            Log::Wal => "wal-",
            Log::Archive => "arc-",
        }
    }

    /// Resumes the log at `dir` and appends records `ids`.
    fn append(self, dir: &Path, ids: std::ops::Range<u64>, segment_bytes: u64) -> Result<()> {
        match self {
            Log::Wal => {
                let tuning = WalTuning {
                    sync_every: u32::MAX,
                    segment_bytes,
                };
                let (wal, _) = FleetWal::open(dir, tuning, |_| false)?;
                wal.attach(&tid("a"), 0)?;
                for i in ids {
                    wal.append(&tid("a"), &DataPoint::new(vec![i as f64]))?;
                }
            }
            Log::Archive => {
                let mut arc = VerdictArchive::open_with(dir, segment_bytes)?;
                for i in ids {
                    arc.append(&[sample(i, 0)])?;
                }
            }
        }
        Ok(())
    }

    /// The record ids a reader recovers, and whether it saw a tear.
    fn replay(self, dir: &Path) -> Result<(Vec<u64>, bool)> {
        Ok(match self {
            Log::Wal => {
                let scan = spot_stream::wal::scan_wal_dir(dir, |_| true)?;
                let a = scan.streams.get("a").map(|s| &s.records[..]).unwrap_or(&[]);
                let ids = a.iter().map(|(_, p)| p.values()[0] as u64).collect();
                (ids, scan.log.torn())
            }
            Log::Archive => {
                let replay = VerdictArchive::replay(dir)?;
                (
                    replay.verdicts.iter().map(|v| v.tick).collect(),
                    replay.torn_tail,
                )
            }
        })
    }

    /// The message of `result`'s error when it is this log's typed
    /// corruption error.
    fn corruption<T: std::fmt::Debug>(self, result: Result<T>) -> String {
        match (self, result) {
            (Log::Wal, Err(SpotError::WalCorrupt(m)))
            | (Log::Archive, Err(SpotError::SnapshotCorrupt(m))) => m,
            (_, other) => panic!("{self:?}: expected typed corruption, got {other:?}"),
        }
    }

    /// Writes the base log — records 0..3 in segment 1, 3..6 in segment 2
    /// — and returns its files.
    fn base(self, dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let _ = std::fs::remove_dir_all(dir);
        self.append(dir, 0..3, 1 << 20).unwrap();
        self.append(dir, 3..4, 1).unwrap();
        self.append(dir, 4..6, 1 << 20).unwrap();
        let files: Vec<_> = ["00000001", "00000002"]
            .map(|n| dir.join(format!("{}{n}.seg", self.prefix())))
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .into();
        assert_eq!(segments(dir, self.prefix()).len(), 2);
        assert_eq!(self.replay(dir).unwrap(), ((0..6).collect(), false));
        files
    }

    /// Byte offsets of a segment's frames, header frames included.
    fn frame_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = vec![12];
        while let Some(&at) = starts.last().filter(|&&at| at < bytes.len()) {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            starts.push(at + 4 + len + 8);
        }
        starts.pop();
        starts
    }

    fn header_frames(self) -> usize {
        match self {
            Log::Wal => 1,
            Log::Archive => 0,
        }
    }

    fn header_len(self, segment: &[u8]) -> usize {
        Self::frame_starts(segment)[self.header_frames()]
    }
}

/// Replaces `dir`'s contents with `files`, `segment` (an index into
/// `files`) swapped for `damaged`.
fn lay_out(dir: &Path, files: &[(PathBuf, Vec<u8>)], segment: usize, damaged: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (i, (path, bytes)) in files.iter().enumerate() {
        std::fs::write(path, if i == segment { damaged } else { bytes }).unwrap();
    }
}

/// Every damage a crash can do to a segment's last frame: cut it at each
/// byte, or flip any one of its bits' bytes.
fn tears(segment: &[u8]) -> Vec<Vec<u8>> {
    let last = *Log::frame_starts(segment).last().unwrap();
    let cuts = (last + 1..segment.len()).map(|cut| segment[..cut].to_vec());
    let flips = (last..segment.len()).map(|at| {
        let mut bytes = segment.to_vec();
        bytes[at] ^= 0x20;
        bytes
    });
    cuts.chain(flips).collect()
}

#[test]
fn tearing_the_final_frame_anywhere_replays_the_prefix_and_reopens_cleanly() {
    for log in BOTH {
        let dir = temp_dir(&format!("tear-{log:?}"));
        let files = log.base(&dir);
        for damaged in tears(&files[1].1) {
            lay_out(&dir, &files, 1, &damaged);
            assert_eq!(log.replay(&dir).unwrap(), ((0..5).collect(), true));
            log.append(&dir, 5..7, 1 << 20).unwrap();
            assert_eq!(log.replay(&dir).unwrap(), ((0..7).collect(), false));
        }
        // Frame lengths vary, so nothing re-synchronises past a bad frame:
        // damage to the final segment's first record ends the log there.
        let mut damaged = files[1].1.clone();
        let first = Log::frame_starts(&damaged)[log.header_frames()];
        damaged[first + 6] ^= 1;
        lay_out(&dir, &files, 1, &damaged);
        assert_eq!(log.replay(&dir).unwrap(), ((0..3).collect(), true));
        log.append(&dir, 5..7, 1 << 20).unwrap();
        let kept: Vec<u64> = (0..3).chain(5..7).collect();
        assert_eq!(log.replay(&dir).unwrap(), (kept, false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_same_damage_in_a_sealed_segment_is_corruption() {
    for log in BOTH {
        let dir = temp_dir(&format!("sealed-{log:?}"));
        let files = log.base(&dir);
        for damaged in tears(&files[0].1) {
            lay_out(&dir, &files, 0, &damaged);
            log.corruption(log.replay(&dir));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_rotation_residue_is_dropped_on_scan_and_deleted_on_resume() {
    for log in BOTH {
        let dir = temp_dir(&format!("residue-{log:?}"));
        let mut files = log.base(&dir);
        let next = dir.join(format!("{}00000003.seg", log.prefix()));
        let header = files[1].1[..log.header_len(&files[1].1)].to_vec();
        files.push((next.clone(), Vec::new()));
        for cut in 0..header.len() {
            lay_out(&dir, &files, 2, &header[..cut]);
            assert_eq!(log.replay(&dir).unwrap(), ((0..6).collect(), true));
            log.append(&dir, 6..7, 1 << 20).unwrap();
            assert!(!next.exists(), "cut {cut}: residue deleted");
            assert_eq!(log.replay(&dir).unwrap(), ((0..7).collect(), false));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_foreign_magic_or_version_is_refused_naming_the_version() {
    for log in BOTH {
        let dir = temp_dir(&format!("foreign-{log:?}"));
        let files = log.base(&dir);
        for (at, byte, named) in [
            (8, 1, "version 1,"),
            (8, 99, "version 99,"),
            (7, b'0', "magic"),
        ] {
            for segment in [0, 1] {
                let mut damaged = files[segment].1.clone();
                damaged[at] = byte;
                lay_out(&dir, &files, segment, &damaged);
                assert!(log.corruption(log.replay(&dir)).contains(named));
                if segment == 1 {
                    let open = log.append(&dir, 6..7, 1 << 20);
                    assert!(log.corruption(open).contains(named));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_checksum_valid_frame_that_does_not_decode_is_corruption_even_in_the_tail() {
    for log in BOTH {
        let dir = temp_dir(&format!("undecodable-{log:?}"));
        let files = log.base(&dir);
        let mut damaged = files[1].1.clone();
        spot_types::framed::put_frame(&mut damaged, |b| b.extend([0xEE; 5])).unwrap();
        lay_out(&dir, &files, 1, &damaged);
        assert!(log.corruption(log.replay(&dir)).contains("byte"));
        log.corruption(log.append(&dir, 6..7, 1 << 20));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
