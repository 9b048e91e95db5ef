//! Capture/restore substrate for durable engine state ("snapshot v2").
//!
//! Every stateful layer of the detector — decayed counters, cell stores,
//! the drift test, the reservoir, the clock — owns its own serialization by
//! implementing [`DurableState`] (or an inherent `capture_state` /
//! `restore_state` pair when extra context such as a grid is needed). The
//! top-level snapshot composes the layers' value trees instead of reaching
//! into their internals.
//!
//! # Bit-exactness
//!
//! Warm restarts must reproduce the *exact* runtime state: a restored
//! detector has to emit bit-identical verdicts to one that never stopped.
//! Floating-point state is therefore encoded as raw IEEE-754 bit patterns
//! (`u64`), never as decimal text — that round-trips every value including
//! `±0.0`, subnormals and infinities through any textual carrier. Wide
//! [`u128`] cell keys are split into two `u64` lanes for the same reason.
//!
//! Columns (the natural shape of the SoA synopsis stores) are written as
//! flat arrays, one field per column — the "compact column-oriented
//! encoding" of the v2 snapshot format. See `docs/persistence.md` for the
//! full format layout and versioning policy.

use crate::error::SpotError;
use serde::Value;

/// Little-endian binary lanes — the persistence layer's byte-level
/// encoding discipline, shared by the ingestion WAL's record frames.
///
/// The JSON checkpoint carrier stores floats as `u64` bit patterns inside
/// a value tree; binary carriers (the WAL, and the [`binary`] column
/// carrier) store the *same lanes* as fixed-width little-endian fields.
/// Both directions are total: every bit pattern round-trips, including
/// `±0.0`, subnormals and infinities.
pub mod lanes {
    /// Appends a `u32` as 4 little-endian bytes.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` as 8 little-endian bytes.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (8 LE bytes, exact).
    pub fn put_f64_bits(buf: &mut Vec<u8>, v: f64) {
        put_u64(buf, v.to_bits());
    }

    /// Reads the `u32` lane at byte offset `at`, or `None` when the slice
    /// ends before the lane does.
    pub fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
        let lane = bytes.get(at..at.checked_add(4)?)?;
        Some(u32::from_le_bytes(lane.try_into().expect("4-byte lane")))
    }

    /// Reads the `u64` lane at byte offset `at`.
    pub fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
        let lane = bytes.get(at..at.checked_add(8)?)?;
        Some(u64::from_le_bytes(lane.try_into().expect("8-byte lane")))
    }

    /// Reads the `f64` bit-pattern lane at byte offset `at` (exact).
    pub fn get_f64_bits(bytes: &[u8], at: usize) -> Option<f64> {
        get_u64(bytes, at).map(f64::from_bits)
    }
}

/// Binary column carrier — the compact backend behind the same
/// [`StateWriter`]/[`StateReader`] value trees that the JSON carrier
/// renders as text ("snapshot v3").
///
/// The encoding is a tagged pre-order walk of the value tree. Scalars are
/// varint/fixed lanes; the payoff is the dedicated *column* tag: a
/// [`Value::U64Col`] (or any non-empty array of `u64` entries — bit-pattern
/// float columns, packed cell-key lanes) is emitted as one contiguous run
/// in a per-column mode chosen deterministically from the data:
///
/// | mode | layout | wins for |
/// |------|--------|----------|
/// | `RAW`    | 8 LE bytes per entry        | float bit patterns (incompressible mantissas) |
/// | `VARINT` | LEB128 per entry            | small counters, tick columns |
/// | `DELTA`  | first entry + zigzag diffs  | sorted keys, monotone clocks |
/// | `CONST`  | one 8-byte entry            | all-equal columns (masks, dims) |
/// | `GORILLA`| XOR-prev, byte-aligned lanes | slow-moving float bit patterns |
///
/// Every multi-byte lane is little-endian. Decoding is total: all counts
/// and lengths are bounds-checked against the remaining input *before*
/// allocation, recursion depth is capped, and every malformed input path
/// returns a typed [`PersistError`] — never a panic. The container frame
/// (`SPOTBIN1` magic + payload + [`Checksum64`](binary::Checksum64)
/// trailer) seals a whole
/// checkpoint file; see `docs/persistence.md` for the full layout.
pub mod binary {
    use super::PersistError;
    use serde::Value;

    /// Magic prefix of a binary container frame.
    pub const MAGIC: &[u8; 8] = b"SPOTBIN1";

    const T_NULL: u8 = 0;
    const T_FALSE: u8 = 1;
    const T_TRUE: u8 = 2;
    const T_U64: u8 = 3;
    const T_I64: u8 = 4;
    const T_F64: u8 = 5;
    const T_STR: u8 = 6;
    const T_ARRAY: u8 = 7;
    const T_OBJECT: u8 = 8;
    const T_COL: u8 = 9;

    const MODE_RAW: u8 = 0;
    const MODE_VARINT: u8 = 1;
    const MODE_DELTA: u8 = 2;
    const MODE_CONST: u8 = 3;
    const MODE_GORILLA: u8 = 4;

    /// Value trees nest component → store → column; anything deeper than
    /// this in a payload is corruption, not state.
    const MAX_DEPTH: usize = 64;

    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn varint_len(v: u64) -> usize {
        // Branch-free: ⌈bits/7⌉ with v=0 mapping to 1 byte. Mode
        // selection sizes every sampled column entry through this, so it
        // must not loop.
        ((63 - (v | 1).leading_zeros() as usize) / 7) + 1
    }

    fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u64, PersistError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = *bytes
                .get(*at)
                .ok_or_else(|| PersistError::custom("varint: truncated input"))?;
            *at += 1;
            if shift == 63 && b > 1 {
                return Err(PersistError::custom("varint: value overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(PersistError::custom("varint: too many continuation bytes"));
            }
        }
    }

    /// Byte-aligned Gorilla-style lane for one `v ^ prev` word: a header
    /// byte packing `(leading zero bytes << 4) | trailing zero bytes`,
    /// then the surviving middle bytes little-endian. Neighbouring float
    /// bit patterns share sign/exponent/high-mantissa bytes, so the XOR's
    /// zero fringe is dropped without the bit-granular accounting of the
    /// original Gorilla paper — byte lanes keep both coders branch-light
    /// and the wire format trivially bounds-checkable. A zero XOR
    /// (repeated value) is the bare header `0x80`.
    fn gorilla_split(xor: u64) -> (usize, usize) {
        if xor == 0 {
            return (8, 0);
        }
        let lead = xor.leading_zeros() as usize / 8;
        let trail = xor.trailing_zeros() as usize / 8;
        (lead, trail)
    }

    fn gorilla_lane_len(xor: u64) -> usize {
        let (lead, trail) = gorilla_split(xor);
        1 + (8 - lead - trail)
    }

    fn put_gorilla_lane(out: &mut Vec<u8>, xor: u64) {
        let (lead, trail) = gorilla_split(xor);
        out.push(((lead << 4) | trail) as u8);
        let mid = 8 - lead - trail;
        let lanes = (xor >> (trail * 8)).to_le_bytes();
        out.extend_from_slice(&lanes[..mid]);
    }

    fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Word-wise FNV-1a over eight interleaved streams: words 0,8,16,…
    /// fold into stream 0, words 1,9,17,… into stream 1, and so on (final
    /// partial word zero-padded); the digest folds the eight stream
    /// hashes and then the total length into one final FNV chain. The
    /// integrity checksum of every framed file — checkpoint containers,
    /// WAL frames, verdict-archive frames — so on-disk corruption (a
    /// flipped bit in a stored bit pattern, a truncated column) is a typed
    /// error at load time instead of a silently wrong value. Word-wise,
    /// and the eight independent multiply chains pipeline where a single
    /// chain is latency-bound — a multi-megabyte container trailer must
    /// not cost more than the encode itself. Not cryptographic: it guards
    /// against storage faults, not adversaries.
    #[derive(Debug, Clone)]
    pub struct Checksum64 {
        streams: [u64; 8],
        next: usize,
        pending: [u8; 8],
        fill: usize,
        len: u64,
    }

    impl Default for Checksum64 {
        fn default() -> Self {
            Self::new()
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    impl Checksum64 {
        /// Empty-input state.
        pub fn new() -> Self {
            Checksum64 {
                streams: [FNV_OFFSET; 8],
                next: 0,
                pending: [0; 8],
                fill: 0,
                len: 0,
            }
        }

        fn fold(&mut self, word: u64) {
            let s = &mut self.streams[self.next];
            *s = (*s ^ word).wrapping_mul(FNV_PRIME);
            self.next = (self.next + 1) & 7;
        }

        /// Absorbs more input.
        pub fn update(&mut self, mut bytes: &[u8]) {
            self.len += bytes.len() as u64;
            if self.fill > 0 {
                let take = bytes.len().min(8 - self.fill);
                self.pending[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
                self.fill += take;
                bytes = &bytes[take..];
                if self.fill == 8 {
                    let word = u64::from_le_bytes(self.pending);
                    self.fold(word);
                    self.fill = 0;
                } else {
                    return;
                }
            }
            // Fast path once the stream cursor is aligned (it always is
            // for one-shot hashing): eight words per iteration into eight
            // independent chains — the word→stream mapping (word i →
            // stream i mod 8) is identical to the rotating slow path.
            if self.next == 0 {
                let mut s = self.streams;
                let word = |lane: &[u8]| u64::from_le_bytes(lane.try_into().expect("8-byte word"));
                let mut blocks = bytes.chunks_exact(64);
                for block in &mut blocks {
                    for (k, lane) in block.chunks_exact(8).enumerate() {
                        s[k] = (s[k] ^ word(lane)).wrapping_mul(FNV_PRIME);
                    }
                }
                self.streams = s;
                bytes = blocks.remainder();
            }
            let mut rest = bytes.chunks_exact(8);
            for lane in &mut rest {
                let word = u64::from_le_bytes(lane.try_into().expect("8-byte word"));
                self.fold(word);
            }
            let tail = rest.remainder();
            self.pending[..tail.len()].copy_from_slice(tail);
            self.fill = tail.len();
        }

        /// Final digest (partial word zero-padded, the eight stream
        /// hashes folded into one chain, length folded last so trailing
        /// zero bytes still change the sum).
        pub fn finish(mut self) -> u64 {
            if self.fill > 0 {
                self.pending[self.fill..].fill(0);
                let word = u64::from_le_bytes(self.pending);
                self.fold(word);
            }
            let mut hash = FNV_OFFSET;
            for s in self.streams {
                hash = (hash ^ s).wrapping_mul(FNV_PRIME);
            }
            (hash ^ self.len).wrapping_mul(FNV_PRIME)
        }
    }

    /// One-shot word-wise checksum of a byte slice.
    pub fn checksum64(bytes: &[u8]) -> u64 {
        let mut c = Checksum64::new();
        c.update(bytes);
        c.finish()
    }

    /// Returns the column entries when `v` should take the column tag: a
    /// packed column (borrowed), or a non-empty array whose entries are
    /// all `U64` (gathered into a scratch vector so the encoder runs on a
    /// plain slice either way). Empty columns stay on the generic array
    /// tag so they decode to `Value::Array` — the shape every reader
    /// already accepts.
    fn as_col(v: &Value) -> Option<std::borrow::Cow<'_, [u64]>> {
        match v {
            Value::U64Col(col) if !col.is_empty() => {
                Some(std::borrow::Cow::Borrowed(col.as_slice()))
            }
            Value::Array(items) if !items.is_empty() => {
                let mut col = Vec::with_capacity(items.len());
                for it in items {
                    match it {
                        Value::U64(n) => col.push(*n),
                        _ => return None,
                    }
                }
                Some(std::borrow::Cow::Owned(col))
            }
            _ => None,
        }
    }

    /// Deterministic per-column mode choice. Exact scans would dominate
    /// encode time on the ~600k-entry float columns of a warm synopsis, so
    /// large columns are judged from a strided sample; the decision is a
    /// pure function of the data, never of time or randomness.
    fn choose_mode(c: &[u64]) -> u8 {
        let first = c[0];
        if c[1..].iter().all(|&v| v == first) {
            return MODE_CONST;
        }
        // Sample up to 64 entries at a fixed stride.
        let stride = (c.len() / 64).max(1);
        let mut sampled = 0usize;
        let mut varint_bytes = 0usize;
        let mut delta_bytes = 0usize;
        let mut gorilla_bytes = 0usize;
        let mut i = 0;
        let mut prev = first;
        let mut gprev = 0u64;
        while i < c.len() {
            let v = c[i];
            varint_bytes += varint_len(v);
            delta_bytes += if i == 0 {
                varint_len(v)
            } else {
                varint_len(zigzag(v.wrapping_sub(prev) as i64))
            };
            gorilla_bytes += gorilla_lane_len(v ^ gprev);
            prev = v;
            gprev = v;
            sampled += 1;
            i += stride;
        }
        let raw_bytes = sampled * 8;
        // Prefer RAW unless another mode is clearly smaller: RAW decode is
        // a straight copy and float bit patterns are incompressible. The
        // integer modes outrank GORILLA at equal size — their decode is a
        // plain varint chain with no header byte per lane.
        if delta_bytes * 10 < raw_bytes * 9 && delta_bytes <= varint_bytes {
            MODE_DELTA
        } else if varint_bytes * 10 < raw_bytes * 9 {
            MODE_VARINT
        } else if gorilla_bytes * 10 < raw_bytes * 9 {
            MODE_GORILLA
        } else {
            MODE_RAW
        }
    }

    fn encode_col(c: &[u64], out: &mut Vec<u8>) {
        let n = c.len();
        out.push(T_COL);
        put_varint(out, n as u64);
        let mode = choose_mode(c);
        out.push(mode);
        match mode {
            MODE_CONST => out.extend_from_slice(&c[0].to_le_bytes()),
            #[cfg(target_endian = "little")]
            MODE_RAW => {
                // SAFETY: a `[u64]` is always valid to view as the same
                // span of initialized bytes, and on a little-endian target
                // that view IS the `to_le_bytes` lane sequence the wire
                // format wants. One bulk copy instead of a per-element
                // loop — RAW columns are the bulk of a warm synopsis, so
                // this path sets the encode rate.
                let lanes = unsafe { std::slice::from_raw_parts(c.as_ptr().cast::<u8>(), n * 8) };
                out.extend_from_slice(lanes);
            }
            #[cfg(not(target_endian = "little"))]
            MODE_RAW => {
                out.reserve(n * 8);
                for &v in c {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            MODE_VARINT => {
                for &v in c {
                    put_varint(out, v);
                }
            }
            MODE_DELTA => {
                let mut prev = c[0];
                put_varint(out, prev);
                for &v in &c[1..] {
                    put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
                    prev = v;
                }
            }
            MODE_GORILLA => {
                // Seeding prev = 0 makes the first lane carry the value
                // itself; no separate bootstrap entry in the wire format.
                let mut prev = 0u64;
                for &v in c {
                    put_gorilla_lane(out, v ^ prev);
                    prev = v;
                }
            }
            _ => unreachable!("choose_mode returns a known mode"),
        }
    }

    /// Encodes a value tree into the binary payload (no container frame).
    pub fn encode(v: &Value, out: &mut Vec<u8>) {
        if let Some(col) = as_col(v) {
            encode_col(&col, out);
            return;
        }
        match v {
            Value::Null => out.push(T_NULL),
            Value::Bool(false) => out.push(T_FALSE),
            Value::Bool(true) => out.push(T_TRUE),
            Value::U64(n) => {
                out.push(T_U64);
                put_varint(out, *n);
            }
            Value::I64(n) => {
                out.push(T_I64);
                put_varint(out, zigzag(*n));
            }
            Value::F64(f) => {
                out.push(T_F64);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(T_STR);
                put_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            // Empty columns and mixed arrays (as_col said no).
            Value::U64Col(col) => {
                debug_assert!(col.is_empty(), "non-empty cols take the column tag");
                out.push(T_ARRAY);
                put_varint(out, col.len() as u64);
                for n in col {
                    out.push(T_U64);
                    put_varint(out, *n);
                }
            }
            Value::Array(items) => {
                out.push(T_ARRAY);
                put_varint(out, items.len() as u64);
                for item in items {
                    encode(item, out);
                }
            }
            Value::Object(entries) => {
                out.push(T_OBJECT);
                put_varint(out, entries.len() as u64);
                for (k, val) in entries {
                    put_varint(out, k.len() as u64);
                    out.extend_from_slice(k.as_bytes());
                    encode(val, out);
                }
            }
        }
    }

    /// Claims `want` bytes (for a count of fixed-size lanes) before any
    /// allocation happens — a corrupted count field must fail here, not OOM.
    fn check_remaining(
        bytes: &[u8],
        at: usize,
        want: usize,
        what: &str,
    ) -> Result<(), PersistError> {
        let have = bytes.len().saturating_sub(at);
        if want > have {
            return Err(PersistError::custom(format!(
                "{what}: needs {want} bytes, {have} remain"
            )));
        }
        Ok(())
    }

    fn decode_at(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Value, PersistError> {
        if depth > MAX_DEPTH {
            return Err(PersistError::custom("value tree nests too deep"));
        }
        let tag = *bytes
            .get(*at)
            .ok_or_else(|| PersistError::custom("truncated input: missing tag"))?;
        *at += 1;
        match tag {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            T_U64 => get_varint(bytes, at).map(Value::U64),
            T_I64 => get_varint(bytes, at).map(|v| Value::I64(unzigzag(v))),
            T_F64 => {
                check_remaining(bytes, *at, 8, "f64 lane")?;
                let lane = u64::from_le_bytes(bytes[*at..*at + 8].try_into().expect("8 bytes"));
                *at += 8;
                Ok(Value::F64(f64::from_bits(lane)))
            }
            T_STR => {
                let len = get_varint(bytes, at)? as usize;
                check_remaining(bytes, *at, len, "string body")?;
                let s = std::str::from_utf8(&bytes[*at..*at + len])
                    .map_err(|_| PersistError::custom("string body: invalid UTF-8"))?
                    .to_string();
                *at += len;
                Ok(Value::Str(s))
            }
            T_ARRAY => {
                let n = get_varint(bytes, at)? as usize;
                // Every element is at least one tag byte.
                check_remaining(bytes, *at, n, "array body")?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(decode_at(bytes, at, depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            T_OBJECT => {
                let n = get_varint(bytes, at)? as usize;
                // Every entry is at least a key length byte + a tag byte.
                check_remaining(bytes, *at, n.saturating_mul(2), "object body")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = get_varint(bytes, at)? as usize;
                    check_remaining(bytes, *at, klen, "object key")?;
                    let k = std::str::from_utf8(&bytes[*at..*at + klen])
                        .map_err(|_| PersistError::custom("object key: invalid UTF-8"))?
                        .to_string();
                    *at += klen;
                    let v = decode_at(bytes, at, depth + 1)?;
                    entries.push((k, v));
                }
                Ok(Value::Object(entries))
            }
            T_COL => {
                let n = get_varint(bytes, at)? as usize;
                if n == 0 {
                    return Err(PersistError::custom("column: zero-length column tag"));
                }
                let mode = *bytes
                    .get(*at)
                    .ok_or_else(|| PersistError::custom("column: missing mode byte"))?;
                *at += 1;
                let mut col: Vec<u64>;
                match mode {
                    MODE_CONST => {
                        check_remaining(bytes, *at, 8, "const column")?;
                        let v =
                            u64::from_le_bytes(bytes[*at..*at + 8].try_into().expect("8 bytes"));
                        *at += 8;
                        col = vec![v; n];
                    }
                    MODE_RAW => {
                        let want = n
                            .checked_mul(8)
                            .ok_or_else(|| PersistError::custom("raw column: count overflow"))?;
                        check_remaining(bytes, *at, want, "raw column")?;
                        col = Vec::with_capacity(n);
                        for lane in bytes[*at..*at + want].chunks_exact(8) {
                            col.push(u64::from_le_bytes(lane.try_into().expect("8 bytes")));
                        }
                        *at += want;
                    }
                    MODE_VARINT => {
                        check_remaining(bytes, *at, n, "varint column")?;
                        col = Vec::with_capacity(n);
                        for _ in 0..n {
                            col.push(get_varint(bytes, at)?);
                        }
                    }
                    MODE_DELTA => {
                        check_remaining(bytes, *at, n, "delta column")?;
                        col = Vec::with_capacity(n);
                        let mut prev = get_varint(bytes, at)?;
                        col.push(prev);
                        for _ in 1..n {
                            let d = unzigzag(get_varint(bytes, at)?);
                            prev = prev.wrapping_add(d as u64);
                            col.push(prev);
                        }
                    }
                    MODE_GORILLA => {
                        // Every lane is at least its header byte.
                        check_remaining(bytes, *at, n, "gorilla column")?;
                        col = Vec::with_capacity(n);
                        let mut prev = 0u64;
                        for _ in 0..n {
                            let header = *bytes.get(*at).ok_or_else(|| {
                                PersistError::custom("gorilla column: missing lane header")
                            })?;
                            *at += 1;
                            let lead = (header >> 4) as usize;
                            let trail = (header & 0x0f) as usize;
                            if lead + trail > 8 {
                                return Err(PersistError::custom(format!(
                                    "gorilla column: lane header {header:#04x} claims {} zero \
                                     bytes of 8",
                                    lead + trail
                                )));
                            }
                            let mid = 8 - lead - trail;
                            check_remaining(bytes, *at, mid, "gorilla lane")?;
                            let mut xor = 0u64;
                            for (k, &b) in bytes[*at..*at + mid].iter().enumerate() {
                                xor |= u64::from(b) << ((trail + k) * 8);
                            }
                            *at += mid;
                            prev ^= xor;
                            col.push(prev);
                        }
                    }
                    other => {
                        return Err(PersistError::custom(format!(
                            "column: unknown mode {other}"
                        )));
                    }
                }
                Ok(Value::U64Col(col))
            }
            other => Err(PersistError::custom(format!("unknown value tag {other}"))),
        }
    }

    /// Decodes a binary payload back into a value tree. The whole input
    /// must be consumed — trailing garbage is corruption.
    pub fn decode(bytes: &[u8]) -> Result<Value, PersistError> {
        let mut at = 0;
        let v = decode_at(bytes, &mut at, 0)?;
        if at != bytes.len() {
            return Err(PersistError::custom(format!(
                "trailing garbage: {} bytes after value",
                bytes.len() - at
            )));
        }
        Ok(v)
    }

    /// Wraps an encoded payload in the container frame:
    /// `SPOTBIN1 | payload | checksum64(payload) (8 LE bytes)`.
    pub fn write_container<W: std::io::Write>(mut w: W, payload: &[u8]) -> std::io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(payload)?;
        w.write_all(&checksum64(payload).to_le_bytes())?;
        Ok(())
    }

    /// Encodes a value tree into a complete container frame.
    pub fn encode_container(v: &Value) -> Vec<u8> {
        let mut payload = Vec::new();
        encode(v, &mut payload);
        let mut out = Vec::with_capacity(payload.len() + 16);
        write_container(&mut out, &payload).expect("Vec writes are infallible");
        out
    }

    /// Encodes an object whose field values are *borrowed* — envelope
    /// builders compose `{version, config, …, state}` around a large
    /// resident state tree, and this path encodes it without first deep-
    /// cloning that tree into an owned [`Value::Object`].
    pub fn encode_object_fields(fields: &[(&str, &Value)], out: &mut Vec<u8>) {
        out.push(T_OBJECT);
        put_varint(out, fields.len() as u64);
        for (k, val) in fields {
            put_varint(out, k.len() as u64);
            out.extend_from_slice(k.as_bytes());
            encode(val, out);
        }
    }

    /// Sizing walk for buffer pre-allocation: close for the column-heavy
    /// trees that dominate (a column costs O(1) to size), a safe over-
    /// estimate elsewhere. Purely a `Vec::with_capacity` hint.
    fn estimate_len(v: &Value) -> usize {
        match v {
            Value::Null | Value::Bool(_) => 1,
            Value::U64(n) => 1 + varint_len(*n),
            Value::I64(n) => 1 + varint_len(zigzag(*n)),
            Value::F64(_) => 9,
            Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
            Value::U64Col(col) => 2 + varint_len(col.len() as u64) + 8 * col.len().max(1),
            Value::Array(items) => {
                1 + varint_len(items.len() as u64) + items.iter().map(estimate_len).sum::<usize>()
            }
            Value::Object(entries) => {
                1 + varint_len(entries.len() as u64)
                    + entries
                        .iter()
                        .map(|(k, val)| varint_len(k.len() as u64) + k.len() + estimate_len(val))
                        .sum::<usize>()
            }
        }
    }

    /// Encodes borrowed object fields straight into a sealed container
    /// frame — single buffer, no payload copy: the frame is built in
    /// place and the checksum trailer computed over the encoded span.
    pub fn container_of_fields(fields: &[(&str, &Value)]) -> Vec<u8> {
        let size = fields
            .iter()
            .map(|(k, v)| 11 + k.len() + estimate_len(v))
            .sum::<usize>()
            + MAGIC.len()
            + 16;
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(MAGIC);
        encode_object_fields(fields, &mut out);
        let sum = checksum64(&out[MAGIC.len()..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Verifies and decodes a container frame (magic, checksum trailer,
    /// full payload decode). Any mismatch is a typed error, never a panic.
    pub fn read_container(bytes: &[u8]) -> Result<Value, PersistError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(PersistError::custom(format!(
                "container: {} bytes is shorter than frame overhead",
                bytes.len()
            )));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::custom("container: bad magic"));
        }
        let payload = &bytes[MAGIC.len()..bytes.len() - 8];
        let trailer =
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte trailer"));
        let want = checksum64(payload);
        if trailer != want {
            return Err(PersistError::custom(format!(
                "container: checksum mismatch (stored {trailer:016x}, computed {want:016x})"
            )));
        }
        decode(payload)
    }

    /// True when `bytes` starts with the binary container magic — the
    /// carrier sniff used by version-agnostic restore entry points.
    pub fn is_container(bytes: &[u8]) -> bool {
        bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
    }
}

/// Restore failure: the snapshot's value tree does not describe a valid
/// state for the component (missing field, wrong shape, out-of-range
/// value). Converts into [`SpotError::SnapshotCorrupt`].
#[derive(Debug, Clone, PartialEq)]
pub struct PersistError(pub String);

impl PersistError {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        PersistError(msg.into())
    }

    /// Adds field context to an error.
    pub fn in_field(self, field: &str) -> Self {
        PersistError(format!("{field}: {}", self.0))
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state restore error: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

impl From<PersistError> for SpotError {
    fn from(e: PersistError) -> Self {
        SpotError::SnapshotCorrupt(e.0)
    }
}

/// Capture/restore of a component's complete runtime state.
///
/// `capture` must write everything `restore` needs to rebuild the
/// component bit-exactly; `restore` must leave the component exactly as it
/// was at capture time (derived caches may be rebuilt).
pub trait DurableState {
    /// Writes the component's runtime state.
    fn capture(&self, w: &mut StateWriter);

    /// Rebuilds the component's runtime state from a captured tree.
    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError>;
}

/// Builder for one component's state object (ordered name → value fields).
#[derive(Debug, Default)]
pub struct StateWriter {
    fields: Vec<(String, Value)>,
}

impl StateWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes into the value tree.
    pub fn finish(self) -> Value {
        Value::Object(self.fields)
    }

    /// Raw field.
    pub fn value(&mut self, name: &str, v: Value) {
        self.fields.push((name.to_string(), v));
    }

    /// Unsigned scalar.
    pub fn u64(&mut self, name: &str, v: u64) {
        self.value(name, Value::U64(v));
    }

    /// Boolean scalar.
    pub fn bool(&mut self, name: &str, v: bool) {
        self.value(name, Value::Bool(v));
    }

    /// Float scalar, stored as its IEEE-754 bit pattern (exact).
    pub fn f64_bits(&mut self, name: &str, v: f64) {
        self.value(name, Value::U64(v.to_bits()));
    }

    /// Column of unsigned scalars, stored as a packed [`Value::U64Col`] —
    /// capture is a flat copy with no per-element boxing, and the binary
    /// carrier serializes the column as one contiguous run.
    pub fn u64_col(&mut self, name: &str, vs: impl IntoIterator<Item = u64>) {
        self.value(name, Value::U64Col(vs.into_iter().collect()));
    }

    /// Column of floats, stored as bit patterns (exact).
    pub fn f64_bits_col(&mut self, name: &str, vs: impl IntoIterator<Item = f64>) {
        self.u64_col(name, vs.into_iter().map(f64::to_bits));
    }

    /// Column of 128-bit values, flattened into `[hi, lo, hi, lo, …]`.
    pub fn u128_col(&mut self, name: &str, vs: impl IntoIterator<Item = u128>) {
        let vs = vs.into_iter();
        let mut flat = Vec::with_capacity(vs.size_hint().0 * 2);
        for v in vs {
            flat.push((v >> 64) as u64);
            flat.push(v as u64);
        }
        self.value(name, Value::U64Col(flat));
    }

    /// Column-encoded list of `(tick, point)` pairs — the shared codec for
    /// the reservoir and the outlier buffer: a `dims` scalar plus parallel
    /// `ticks` / flat bit-pattern `values` columns.
    pub fn point_list(&mut self, name: &str, items: &[(u64, crate::point::DataPoint)]) {
        let dims = items.first().map_or(0, |(_, p)| p.dims());
        self.nested(name, |w| {
            w.u64("dims", dims as u64);
            w.u64_col("ticks", items.iter().map(|(t, _)| *t));
            let mut values = Vec::with_capacity(items.len() * dims);
            for (_, p) in items {
                values.extend_from_slice(p.values());
            }
            w.f64_bits_col("values", values);
        });
    }

    /// Nested component state captured via [`DurableState`].
    pub fn component(&mut self, name: &str, c: &dyn DurableState) {
        let mut w = StateWriter::new();
        c.capture(&mut w);
        self.value(name, w.finish());
    }

    /// Nested object built by a closure.
    pub fn nested(&mut self, name: &str, f: impl FnOnce(&mut StateWriter)) {
        let mut w = StateWriter::new();
        f(&mut w);
        self.value(name, w.finish());
    }

    /// List of nested objects (`n` entries, built by index).
    pub fn nested_list(&mut self, name: &str, items: Vec<Value>) {
        self.value(name, Value::Array(items));
    }
}

/// Typed reads over one component's captured state object.
#[derive(Debug, Clone, Copy)]
pub struct StateReader<'a> {
    v: &'a Value,
}

impl<'a> StateReader<'a> {
    /// Wraps a captured value tree (must be an object).
    pub fn new(v: &'a Value) -> Result<Self, PersistError> {
        match v {
            Value::Object(_) => Ok(StateReader { v }),
            other => Err(PersistError::custom(format!(
                "expected state object, found {other:?}"
            ))),
        }
    }

    fn field(&self, name: &str) -> Result<&'a Value, PersistError> {
        self.v
            .get_field(name)
            .ok_or_else(|| PersistError::custom(format!("missing field `{name}`")))
    }

    /// Raw field access.
    pub fn value(&self, name: &str) -> Result<&'a Value, PersistError> {
        self.field(name)
    }

    /// Unsigned scalar.
    pub fn u64(&self, name: &str) -> Result<u64, PersistError> {
        match self.field(name)? {
            Value::U64(n) => Ok(*n),
            other => Err(PersistError::custom(format!(
                "field `{name}`: expected u64, found {other:?}"
            ))),
        }
    }

    /// Boolean scalar.
    pub fn bool(&self, name: &str) -> Result<bool, PersistError> {
        match self.field(name)? {
            Value::Bool(b) => Ok(*b),
            other => Err(PersistError::custom(format!(
                "field `{name}`: expected bool, found {other:?}"
            ))),
        }
    }

    /// Float scalar stored as a bit pattern.
    pub fn f64_bits(&self, name: &str) -> Result<f64, PersistError> {
        self.u64(name).map(f64::from_bits)
    }

    fn array(&self, name: &str) -> Result<&'a [Value], PersistError> {
        match self.field(name)? {
            Value::Array(items) => Ok(items),
            other => Err(PersistError::custom(format!(
                "field `{name}`: expected array, found {other:?}"
            ))),
        }
    }

    /// Column of unsigned scalars. Accepts both carriers: the packed
    /// [`Value::U64Col`] written by current captures, and a plain array of
    /// `u64` entries (what a JSON parse of any checkpoint yields).
    pub fn u64_col(&self, name: &str) -> Result<Vec<u64>, PersistError> {
        match self.field(name)? {
            Value::U64Col(col) => Ok(col.clone()),
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::U64(n) => Ok(*n),
                    other => Err(PersistError::custom(format!(
                        "column `{name}`: expected u64 entry, found {other:?}"
                    ))),
                })
                .collect(),
            other => Err(PersistError::custom(format!(
                "field `{name}`: expected array, found {other:?}"
            ))),
        }
    }

    /// Column of floats stored as bit patterns.
    pub fn f64_bits_col(&self, name: &str) -> Result<Vec<f64>, PersistError> {
        Ok(self
            .u64_col(name)?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Column of 128-bit values flattened as `[hi, lo, …]`.
    pub fn u128_col(&self, name: &str) -> Result<Vec<u128>, PersistError> {
        let flat = self.u64_col(name)?;
        if flat.len() % 2 != 0 {
            return Err(PersistError::custom(format!(
                "column `{name}`: odd number of u128 lanes"
            )));
        }
        Ok(flat
            .chunks_exact(2)
            .map(|c| ((c[0] as u128) << 64) | c[1] as u128)
            .collect())
    }

    /// Decodes a [`StateWriter::point_list`] column group. When
    /// `expect_dims` is given, every restored point must have exactly that
    /// dimensionality — inconsistent payloads fail here, at load time,
    /// instead of corrupting the detector mid-stream.
    pub fn point_list(
        &self,
        name: &str,
        expect_dims: Option<usize>,
    ) -> Result<Vec<(u64, crate::point::DataPoint)>, PersistError> {
        let r = self.nested(name)?;
        let dims = r.u64("dims")? as usize;
        let ticks = r.u64_col("ticks")?;
        let values = r.f64_bits_col("values")?;
        if ticks.len() * dims != values.len() || (!ticks.is_empty() && dims == 0) {
            return Err(PersistError::custom(format!(
                "point list `{name}`: {} ticks × {dims} dims ≠ {} values",
                ticks.len(),
                values.len()
            )));
        }
        if let Some(want) = expect_dims {
            if !ticks.is_empty() && dims != want {
                return Err(PersistError::custom(format!(
                    "point list `{name}`: dimensionality {dims} does not match expected {want}"
                )));
            }
        }
        Ok(ticks
            .into_iter()
            .zip(values.chunks(dims.max(1)))
            .map(|(t, vs)| (t, crate::point::DataPoint::new(vs.to_vec())))
            .collect())
    }

    /// Nested component state.
    pub fn nested(&self, name: &str) -> Result<StateReader<'a>, PersistError> {
        StateReader::new(self.field(name)?).map_err(|e| e.in_field(name))
    }

    /// List of nested component states.
    pub fn nested_list(&self, name: &str) -> Result<Vec<StateReader<'a>>, PersistError> {
        self.array(name)?
            .iter()
            .map(|v| StateReader::new(v).map_err(|e| e.in_field(name)))
            .collect()
    }

    /// Restores a nested component via [`DurableState`].
    pub fn restore_component(
        &self,
        name: &str,
        c: &mut dyn DurableState,
    ) -> Result<(), PersistError> {
        c.restore(&self.nested(name)?).map_err(|e| e.in_field(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut w = StateWriter::new();
        w.u64("n", u64::MAX);
        w.bool("b", true);
        w.f64_bits("f", -0.0);
        w.f64_bits("inf", f64::INFINITY);
        let v = w.finish();
        let r = StateReader::new(&v).unwrap();
        assert_eq!(r.u64("n").unwrap(), u64::MAX);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.f64_bits("f").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_bits("inf").unwrap(), f64::INFINITY);
    }

    #[test]
    fn columns_roundtrip_bit_exact() {
        let floats = [0.1, -0.0, f64::MIN_POSITIVE / 2.0, 1e308, -3.5];
        let wide = [0u128, 1, u128::MAX, (7u128 << 64) | 9];
        let mut w = StateWriter::new();
        w.f64_bits_col("f", floats.iter().copied());
        w.u128_col("k", wide.iter().copied());
        w.u64_col("u", [3u64, 0, u64::MAX]);
        let v = w.finish();
        let r = StateReader::new(&v).unwrap();
        let back = r.f64_bits_col("f").unwrap();
        for (a, b) in floats.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.u128_col("k").unwrap(), wide);
        assert_eq!(r.u64_col("u").unwrap(), vec![3, 0, u64::MAX]);
    }

    #[test]
    fn missing_and_mistyped_fields_error() {
        let mut w = StateWriter::new();
        w.u64("n", 1);
        let v = w.finish();
        let r = StateReader::new(&v).unwrap();
        assert!(r.u64("gone").is_err());
        assert!(r.bool("n").is_err());
        assert!(r.nested("n").is_err());
        assert!(StateReader::new(&Value::U64(3)).is_err());
    }

    #[test]
    fn nested_components_compose() {
        struct Counter(u64);
        impl DurableState for Counter {
            fn capture(&self, w: &mut StateWriter) {
                w.u64("count", self.0);
            }
            fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
                self.0 = r.u64("count")?;
                Ok(())
            }
        }
        let mut w = StateWriter::new();
        w.component("inner", &Counter(41));
        let v = w.finish();
        let r = StateReader::new(&v).unwrap();
        let mut c = Counter(0);
        r.restore_component("inner", &mut c).unwrap();
        assert_eq!(c.0, 41);
    }

    #[test]
    fn point_list_roundtrips_and_validates() {
        use crate::point::DataPoint;
        let items = vec![
            (3u64, DataPoint::new(vec![0.25, -0.0])),
            (9, DataPoint::new(vec![f64::INFINITY, 1e-310])),
        ];
        let mut w = StateWriter::new();
        w.point_list("pts", &items);
        w.point_list("empty", &[]);
        let v = w.finish();
        let r = StateReader::new(&v).unwrap();
        let back = r.point_list("pts", Some(2)).unwrap();
        assert_eq!(back.len(), 2);
        for ((ta, pa), (tb, pb)) in items.iter().zip(&back) {
            assert_eq!(ta, tb);
            for (a, b) in pa.values().iter().zip(pb.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(r.point_list("empty", Some(5)).unwrap().is_empty());
        // Dimensionality mismatches fail at decode time.
        assert!(r.point_list("pts", Some(3)).is_err());
        // dims = 0 with non-empty ticks is rejected, not silently dropped.
        let mut w = StateWriter::new();
        w.nested("bad", |w| {
            w.u64("dims", 0);
            w.u64_col("ticks", [1u64]);
            w.f64_bits_col("values", []);
        });
        let v = w.finish();
        let r = StateReader::new(&v).unwrap();
        assert!(r.point_list("bad", None).is_err());
    }

    #[test]
    fn lanes_roundtrip_bit_exact_and_bound_check() {
        let mut buf = Vec::new();
        lanes::put_u32(&mut buf, 0xDEAD_BEEF);
        lanes::put_u64(&mut buf, u64::MAX - 7);
        for v in [0.1, -0.0, f64::MIN_POSITIVE / 2.0, f64::INFINITY, 1e308] {
            lanes::put_f64_bits(&mut buf, v);
        }
        assert_eq!(buf.len(), 4 + 8 + 5 * 8);
        assert_eq!(lanes::get_u32(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(lanes::get_u64(&buf, 4), Some(u64::MAX - 7));
        let back = lanes::get_f64_bits(&buf, 12).unwrap();
        assert_eq!(back.to_bits(), 0.1f64.to_bits());
        assert_eq!(
            lanes::get_f64_bits(&buf, 20).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        // Reads past the end (or overflowing offsets) are None, not panics.
        assert_eq!(lanes::get_u64(&buf, buf.len() - 7), None);
        assert_eq!(lanes::get_u32(&buf, usize::MAX), None);
        assert_eq!(lanes::get_u64(&buf, usize::MAX - 3), None);
    }

    #[test]
    fn checksum64_is_sensitive_to_every_bit() {
        // A single flipped bit anywhere in a WAL-record-sized payload
        // changes the checksum.
        let base: Vec<u8> = (0..140u8).map(|b| b.wrapping_mul(37)).collect();
        let want = binary::checksum64(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(binary::checksum64(&flipped), want, "bit {i}");
        }
    }

    #[test]
    fn persist_error_maps_to_spot_error() {
        let e: SpotError = PersistError::custom("bad").into();
        assert!(matches!(e, SpotError::SnapshotCorrupt(_)));
    }

    fn sample_tree() -> Value {
        let mut w = StateWriter::new();
        w.u64("count", u64::MAX);
        w.bool("warm", true);
        w.f64_bits("thresh", -0.0);
        w.value("label", Value::Str("detector/α\n\"q\"".into()));
        w.value("neg", Value::I64(-40));
        w.value("pi", Value::F64(3.25));
        w.value("nil", Value::Null);
        w.u64_col("empty", []);
        w.u64_col("ticks", (0..300).map(|i| 1_000 + i * 3));
        w.f64_bits_col("moments", [0.1, -0.0, f64::INFINITY, 1e-310, 1e308]);
        w.u128_col("keys", [0u128, u128::MAX, (7u128 << 64) | 9]);
        w.u64_col("mask", std::iter::repeat_n(0xfeed, 40));
        w.nested("inner", |w| {
            w.u64_col("small", [1, 2, 3]);
            w.value(
                "mixed",
                Value::Array(vec![Value::U64(1), Value::Str("x".into())]),
            );
        });
        w.finish()
    }

    #[test]
    fn binary_roundtrip_preserves_tree_equality() {
        let tree = sample_tree();
        let mut payload = Vec::new();
        binary::encode(&tree, &mut payload);
        let back = binary::decode(&payload).unwrap();
        // U64Col/Array bridging makes this equality carrier-independent.
        assert_eq!(back, tree);
        // Columns decode packed; readers accept them transparently.
        let r = StateReader::new(&back).unwrap();
        assert_eq!(r.u64_col("ticks").unwrap().len(), 300);
        assert_eq!(
            r.u128_col("keys").unwrap(),
            vec![0u128, u128::MAX, (7u128 << 64) | 9]
        );
        assert_eq!(
            r.f64_bits_col("moments").unwrap()[1].to_bits(),
            (-0.0f64).to_bits()
        );
        // Encoding the decoded tree is a byte-level fixed point.
        let mut again = Vec::new();
        binary::encode(&back, &mut again);
        assert_eq!(again, payload);
    }

    #[test]
    fn binary_column_modes_cover_raw_varint_delta_const() {
        // Each column shape must round-trip regardless of which mode the
        // chooser picks, and the obvious shapes should pick the small one.
        let cases: Vec<Vec<u64>> = vec![
            [0.1f64, 1e308, -3.5, f64::MIN_POSITIVE]
                .iter()
                .map(|f| f.to_bits())
                .collect(), // incompressible → RAW
            (0..500).map(|i| i % 7).collect(), // small values → VARINT
            (0..500).map(|i| 1_000_000 + i * 5).collect(), // monotone → DELTA
            vec![42; 256],                     // all equal → CONST
            vec![u64::MAX],                    // single entry
            (0..500)
                .map(|i| (100.0 + (i % 13) as f64 * 0.25).to_bits())
                .collect(), // slow-moving floats → GORILLA
        ];
        for col in cases {
            let tree = Value::Object(vec![("c".into(), Value::U64Col(col.clone()))]);
            let mut payload = Vec::new();
            binary::encode(&tree, &mut payload);
            let back = binary::decode(&payload).unwrap();
            let r = StateReader::new(&back).unwrap();
            assert_eq!(r.u64_col("c").unwrap(), col);
        }
        // CONST actually compresses: 256 equal entries ≈ a dozen bytes.
        let tree = Value::U64Col(vec![42; 256]);
        let mut payload = Vec::new();
        binary::encode(&tree, &mut payload);
        assert!(payload.len() < 20, "const column took {}", payload.len());
    }

    #[test]
    fn binary_gorilla_compresses_slow_moving_floats() {
        // Neighbouring decayed counts share sign, exponent and the high
        // mantissa bytes; the XOR-prev lanes must beat the 8-byte RAW
        // rate on such a column and still round-trip exactly.
        let col: Vec<u64> = (0..512)
            .map(|i| (1000.0 + (i % 29) as f64).to_bits())
            .collect();
        let tree = Value::U64Col(col.clone());
        let mut payload = Vec::new();
        binary::encode(&tree, &mut payload);
        assert!(
            payload.len() < col.len() * 8,
            "gorilla column took {} bytes for {} raw",
            payload.len(),
            col.len() * 8
        );
        assert!(matches!(binary::decode(&payload).unwrap(), Value::U64Col(c) if c == col));
        // NaN payloads, signed zeros and infinities are bit patterns like
        // any other: a value-level round-trip must be exact.
        let specials: Vec<u64> = [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY]
            .iter()
            .map(|f| f.to_bits())
            .chain([f64::NAN.to_bits() | 0xdead, 0, u64::MAX])
            .flat_map(|b| std::iter::repeat_n(b, 40))
            .collect();
        let mut payload = Vec::new();
        binary::encode(&Value::U64Col(specials.clone()), &mut payload);
        assert!(matches!(binary::decode(&payload).unwrap(), Value::U64Col(c) if c == specials));
    }

    #[test]
    fn binary_gorilla_rejects_malformed_lanes() {
        // Column tag, len 2, gorilla mode, then a lane header claiming
        // more than 8 zero bytes: typed error, no panic.
        assert!(binary::decode(&[9u8, 2, 4, 0x99]).is_err());
        // Valid first lane (8 leading zero bytes = value 0), then a
        // truncated second lane: header promises 8 middle bytes that are
        // not there.
        assert!(binary::decode(&[9u8, 2, 4, 0x80, 0x00, 1, 2]).is_err());
        // Missing header for the second lane entirely.
        assert!(binary::decode(&[9u8, 2, 4, 0x80]).is_err());
    }

    #[test]
    fn binary_array_of_u64_takes_column_tag() {
        // A boxed array of u64 (what a JSON parse yields) and the packed
        // column encode to identical bytes.
        let boxed = Value::Array((0..50).map(Value::U64).collect());
        let packed = Value::U64Col((0..50).collect());
        let mut a = Vec::new();
        let mut b = Vec::new();
        binary::encode(&boxed, &mut a);
        binary::encode(&packed, &mut b);
        assert_eq!(a, b);
        assert!(matches!(binary::decode(&a).unwrap(), Value::U64Col(_)));
        // Empty columns stay on the generic array tag → decode to Array.
        let mut e = Vec::new();
        binary::encode(&Value::U64Col(Vec::new()), &mut e);
        assert!(matches!(binary::decode(&e).unwrap(), Value::Array(_)));
    }

    #[test]
    fn binary_container_detects_truncation_and_bit_flips() {
        let tree = sample_tree();
        let frame = binary::encode_container(&tree);
        assert!(binary::is_container(&frame));
        assert_eq!(binary::read_container(&frame).unwrap(), tree);
        // Truncation at every prefix length: typed error, never a panic.
        for cut in 0..frame.len() {
            assert!(binary::read_container(&frame[..cut]).is_err(), "cut {cut}");
        }
        // A single flipped bit anywhere in the frame is detected.
        for at in (0..frame.len()).step_by(7) {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            assert!(binary::read_container(&bad).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn binary_decode_rejects_malformed_payloads() {
        // Unknown tag.
        assert!(binary::decode(&[0xEE]).is_err());
        // Huge array count with no body must fail before allocating.
        let mut huge = vec![7u8]; // T_ARRAY
        huge.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(binary::decode(&huge).is_err());
        // Zero-length column tag is invalid (empty columns use the array tag).
        assert!(binary::decode(&[9u8, 0]).is_err());
        // Unknown column mode.
        assert!(binary::decode(&[9u8, 1, 9, 1, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Trailing garbage after a complete value.
        assert!(binary::decode(&[0u8, 0u8]).is_err());
        // Deep nesting is capped, not a stack overflow.
        let mut deep = Vec::new();
        for _ in 0..500 {
            deep.push(7u8); // T_ARRAY
            deep.push(1u8); // count 1
        }
        deep.push(0u8);
        assert!(binary::decode(&deep).is_err());
    }

    #[test]
    fn checksum64_streams_identically_to_one_shot() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 % 251) as u8).collect();
        let one = binary::checksum64(&data);
        for split in [0, 1, 7, 8, 9, 500, data.len()] {
            let mut c = binary::Checksum64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), one, "split {split}");
        }
        // Length is folded: zero-padding is not invisible.
        assert_ne!(binary::checksum64(&[0u8; 8]), binary::checksum64(&[0u8; 9]));
        assert_ne!(binary::checksum64(b""), binary::checksum64(&[0u8]));
    }
}
