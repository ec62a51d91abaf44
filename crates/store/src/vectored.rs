//! Wire helpers for the vectorized and transactional `blockdev`
//! operations.
//!
//! `read_many` takes a list of sector numbers and returns a list of
//! sector payloads in request order; `write_many` takes a list of
//! `[sector, data]` pairs. The transaction verbs use a typed triple
//! (`txn_write(txn, sector, data)`) and a bare transaction handle
//! (`commit(txn)` / `abort(txn)`). Both sides of the interface (the disk
//! driver, the journal, the block cache, interposers and tests) build
//! and parse those values through these helpers so the encoding cannot
//! drift — no call site hand-rolls argument packing.

use bytes::Bytes;
use paramecium_machine::dev::disk::SECTOR_SIZE;
use paramecium_obj::{ObjError, ObjResult, TypeTag, Value};

/// Builds the `read_many` argument from sector numbers.
pub fn sectors_arg(sectors: impl IntoIterator<Item = i64>) -> Value {
    Value::List(sectors.into_iter().map(Value::Int).collect())
}

/// Parses the `read_many` argument, rejecting negative sectors.
pub fn parse_sectors(v: &Value) -> ObjResult<Vec<i64>> {
    v.as_list()?.iter().map(parse_sector).collect()
}

/// Parses one sector number, rejecting negatives.
pub(crate) fn parse_sector(v: &Value) -> ObjResult<i64> {
    let sec = v.as_int()?;
    if sec < 0 {
        return Err(ObjError::failed("negative sector"));
    }
    Ok(sec)
}

/// Parses one `(sector, data)` write, rejecting negative sectors and
/// payloads that are not exactly one sector.
pub(crate) fn parse_write(sector: &Value, data: &Value) -> ObjResult<(i64, Bytes)> {
    let sec = parse_sector(sector)?;
    let data = data.as_bytes()?;
    if data.len() != SECTOR_SIZE {
        return Err(ObjError::failed(format!(
            "sector writes must be exactly {SECTOR_SIZE} bytes, got {}",
            data.len()
        )));
    }
    Ok((sec, data.clone()))
}

/// Builds the `write_many` argument from `(sector, data)` pairs.
pub fn pairs_arg(pairs: impl IntoIterator<Item = (i64, Bytes)>) -> Value {
    Value::List(
        pairs
            .into_iter()
            .map(|(sec, data)| Value::List(vec![Value::Int(sec), Value::Bytes(data)]))
            .collect(),
    )
}

/// Parses the `write_many` argument, rejecting negative sectors and
/// payloads that are not exactly one sector.
pub fn parse_pairs(v: &Value) -> ObjResult<Vec<(i64, Bytes)>> {
    v.as_list()?
        .iter()
        .map(|pair| {
            let p = pair.as_list()?;
            if p.len() != 2 {
                return Err(ObjError::failed("write_many expects [sector, data] pairs"));
            }
            parse_write(&p[0], &p[1])
        })
        .collect()
}

/// Parameter signature of `txn_write(txn, sector, data)`, shared by
/// every layer that implements the method so the signatures cannot
/// diverge.
pub const TXN_WRITE_PARAMS: &[TypeTag] = &[TypeTag::Int, TypeTag::Int, TypeTag::Bytes];

/// Builds the `txn_write` argument vector.
pub fn txn_write_args(txn: i64, sector: i64, data: Bytes) -> [Value; 3] {
    [Value::Int(txn), Value::Int(sector), Value::Bytes(data)]
}

/// Parses the `txn_write` arguments, validating the sector number and
/// payload size exactly like [`parse_pairs`] does for `write_many`.
pub fn parse_txn_write(args: &[Value]) -> ObjResult<(i64, i64, Bytes)> {
    if args.len() != 3 {
        return Err(ObjError::failed("txn_write expects (txn, sector, data)"));
    }
    let txn = parse_txn(&args[0])?;
    let (sector, data) = parse_write(&args[1], &args[2])?;
    Ok((txn, sector, data))
}

/// Builds the single-argument vector for `commit(txn)` / `abort(txn)`.
pub fn txn_arg(txn: i64) -> [Value; 1] {
    [Value::Int(txn)]
}

/// Parses a transaction handle, rejecting non-positive ids (handles are
/// allocated from 1 by `begin_txn`).
pub fn parse_txn(v: &Value) -> ObjResult<i64> {
    let txn = v.as_int()?;
    if txn <= 0 {
        return Err(ObjError::failed(format!("bad transaction handle {txn}")));
    }
    Ok(txn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sectors_roundtrip() {
        let v = sectors_arg([3, 0, 7]);
        assert_eq!(parse_sectors(&v).unwrap(), vec![3, 0, 7]);
        assert!(parse_sectors(&sectors_arg([-1])).is_err());
        assert!(parse_sectors(&Value::Int(1)).is_err());
    }

    #[test]
    fn pairs_roundtrip_and_validate() {
        let data = Bytes::from(vec![7u8; SECTOR_SIZE]);
        let v = pairs_arg([(5, data.clone())]);
        let parsed = parse_pairs(&v).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 5);
        assert_eq!(parsed[0].1, data);
        // Short payload, negative sector and malformed pairs all fail.
        assert!(parse_pairs(&pairs_arg([(0, Bytes::from_static(b"short"))])).is_err());
        assert!(parse_pairs(&pairs_arg([(-2, data.clone())])).is_err());
        assert!(parse_pairs(&Value::List(vec![Value::Int(1)])).is_err());
        assert!(parse_pairs(&Value::List(vec![Value::List(vec![Value::Int(1)])])).is_err());
    }

    #[test]
    fn txn_codec_roundtrip_and_validate() {
        let data = Bytes::from(vec![3u8; SECTOR_SIZE]);
        let args = txn_write_args(7, 12, data.clone());
        assert_eq!(parse_txn_write(&args).unwrap(), (7, 12, data.clone()));
        assert_eq!(parse_txn(&txn_arg(7)[0]).unwrap(), 7);
        // Bad handle, negative sector, short payload, wrong arity.
        assert!(parse_txn(&Value::Int(0)).is_err());
        assert!(parse_txn(&Value::Int(-3)).is_err());
        assert!(parse_txn_write(&txn_write_args(1, -1, data.clone())).is_err());
        assert!(parse_txn_write(&txn_write_args(1, 0, Bytes::from_static(b"x"))).is_err());
        assert!(parse_txn_write(&args[..2]).is_err());
    }
}
