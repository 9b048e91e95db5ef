//! The binary ingest body, `Content-Type: application/x-spot-points`:
//! `dims: u32` LE, then `n × dims` f64 bit patterns LE, row-major — the
//! WAL frame's lanes ([`spot_types::persist::lanes`]), so no float text
//! on either side and every bit pattern round-trips.

use spot_types::persist::lanes;
use spot_types::DataPoint;

/// The media type that selects this body on `POST /tenants/{id}/ingest`.
pub(crate) const MEDIA_TYPE: &str = "application/x-spot-points";

/// Bytes [`encode`] appends for `n` points of `dims` coordinates.
pub(crate) fn encoded_len(dims: usize, n: usize) -> usize {
    4 + 8 * dims * n
}

/// Appends the body for `points`, every one of them `dims` wide.
pub(crate) fn encode(out: &mut Vec<u8>, dims: u32, points: &[DataPoint]) {
    lanes::put_u32(out, dims);
    for &v in points.iter().flat_map(DataPoint::values) {
        lanes::put_f64_bits(out, v);
    }
}

/// Decodes a body into its width and its coordinates, row-major. Total:
/// a malformed body is an `Err` saying what is wrong, and the one
/// allocation is bounded by the body's length. A bare header is an empty
/// batch.
pub(crate) fn decode(body: &[u8]) -> Result<(usize, Vec<f64>), &'static str> {
    const RAGGED: &str = "points body is not a whole number of dims-wide points";
    let dims =
        lanes::get_u32(body, 0).ok_or("points body is shorter than its 4-byte dims header")?;
    if dims == 0 {
        return Err("points body declares dims 0");
    }
    let dims = usize::try_from(dims).map_err(|_| RAGGED)?;
    let payload = &body[4..];
    let row = dims.checked_mul(8).ok_or(RAGGED)?;
    if !payload.len().is_multiple_of(row) {
        return Err(RAGGED);
    }
    let coords = payload.chunks_exact(8);
    let coords = coords.map(|lane| lanes::get_f64_bits(lane, 0).expect("an 8-byte lane"));
    Ok((dims, coords.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_round_trip_every_bit_pattern() {
        let edge = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            f64::MAX,
        ];
        let points: Vec<_> = edge.chunks(3).map(|c| DataPoint::new(c.to_vec())).collect();
        let mut body = Vec::new();
        encode(&mut body, 3, &points);
        assert_eq!(body.len(), encoded_len(3, points.len()));
        let (dims, coords) = decode(&body).unwrap();
        assert_eq!(dims, 3);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&coords), bits(&edge));
    }
}
