//! Binary encoding of [`Value`]s and property lists.
//!
//! Shared by the engines that serialize records to bytes: the document
//! engine's binary documents, the cluster engine's record payloads, and the
//! columnar engine's cell values. The format is tag-prefixed:
//!
//! ```text
//! 0x00                      Null
//! 0x01 <u8>                 Bool
//! 0x02 <varint zigzag>      Int
//! 0x03 <8 bytes LE>         Float
//! 0x04 <varint len> <utf8>  Str
//! ```

use gm_model::Value;

use crate::codec::{read_varint, unzigzag, write_varint, zigzag};

/// Append the encoding of `v` to `out`.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(0x02);
            write_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(0x03);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(0x04);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode a value at `pos`, advancing it. `None` on malformed input.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Option<Value> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    match tag {
        0x00 => Some(Value::Null),
        0x01 => {
            let b = *buf.get(*pos)?;
            *pos += 1;
            Some(Value::Bool(b != 0))
        }
        0x02 => read_varint(buf, pos).map(|v| Value::Int(unzigzag(v))),
        0x03 => {
            let bytes = buf.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(Value::Float(f64::from_le_bytes(bytes.try_into().ok()?)))
        }
        0x04 => {
            let len = read_varint(buf, pos)? as usize;
            let bytes = buf.get(*pos..pos.checked_add(len)?)?;
            *pos += len;
            Some(Value::Str(String::from_utf8(bytes.to_vec()).ok()?))
        }
        _ => None,
    }
}

/// Advance `pos` past the value encoded there without materialising it.
/// `None` on malformed input, exactly where [`decode_value`] says so except
/// that a string's bytes are not checked to be UTF-8.
pub fn skip_value(buf: &[u8], pos: &mut usize) -> Option<()> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    let len = match tag {
        0x00 => 0,
        0x01 => 1,
        0x02 => return read_varint(buf, pos).map(|_| ()),
        0x03 => 8,
        0x04 => read_varint(buf, pos)? as usize,
        _ => return None,
    };
    *pos = pos.checked_add(len).filter(|end| *end <= buf.len())?;
    Some(())
}

/// Append a `(name-id, value)` property list. Name ids come from the engine's
/// interner.
pub fn encode_props(out: &mut Vec<u8>, props: &[(u32, Value)]) {
    write_varint(out, props.len() as u64);
    for (name_id, v) in props {
        write_varint(out, *name_id as u64);
        encode_value(out, v);
    }
}

/// Decode a property list at `pos`, advancing it.
pub fn decode_props(buf: &[u8], pos: &mut usize) -> Option<Vec<(u32, Value)>> {
    let n = read_varint(buf, pos)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_id = read_varint(buf, pos)? as u32;
        let v = decode_value(buf, pos)?;
        out.push((name_id, v));
    }
    Some(out)
}

/// Advance `pos` past a property list without materialising it.
pub fn skip_props(buf: &[u8], pos: &mut usize) -> Option<()> {
    for _ in 0..read_varint(buf, pos)? {
        read_varint(buf, pos)?;
        skip_value(buf, pos)?;
    }
    Some(())
}

/// The value stored under `name_id` in the property list at `pos` (advanced
/// past the whole list): only that value is materialised. The outer `None`
/// is malformed input, the inner one an absent name.
pub fn find_prop(buf: &[u8], pos: &mut usize, name_id: u32) -> Option<Option<Value>> {
    let mut found = None;
    for _ in 0..read_varint(buf, pos)? {
        if read_varint(buf, pos)? == u64::from(name_id) && found.is_none() {
            found = Some(decode_value(buf, pos)?);
        } else {
            skip_value(buf, pos)?;
        }
    }
    Some(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn value_round_trips() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Int(0));
        round_trip(Value::Int(-1));
        round_trip(Value::Int(i64::MAX));
        round_trip(Value::Int(i64::MIN));
        round_trip(Value::Float(3.25));
        round_trip(Value::Float(-0.0));
        round_trip(Value::Str(String::new()));
        round_trip(Value::Str("snowman ☃".into()));
    }

    #[test]
    fn props_round_trip() {
        let props = vec![
            (0u32, Value::Str("ann".into())),
            (7, Value::Int(42)),
            (3, Value::Bool(false)),
        ];
        let mut buf = Vec::new();
        encode_props(&mut buf, &props);
        let mut pos = 0;
        assert_eq!(decode_props(&buf, &mut pos), Some(props));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn skipping_lands_where_decoding_does() {
        let props = vec![
            (0u32, Value::Str("snowman ☃".into())),
            (7, Value::Int(-42)),
            (3, Value::Bool(false)),
            (9, Value::Float(2.5)),
            (4, Value::Null),
        ];
        let mut buf = Vec::new();
        encode_props(&mut buf, &props);
        buf.push(0xAA); // whatever follows the list is left alone
        let mut pos = 0;
        assert_eq!(skip_props(&buf, &mut pos), Some(()));
        assert_eq!(pos, buf.len() - 1);
        for (name, value) in &props {
            let mut pos = 0;
            assert_eq!(find_prop(&buf, &mut pos, *name), Some(Some(value.clone())));
            assert_eq!(pos, buf.len() - 1);
        }
        assert_eq!(find_prop(&buf, &mut 0, 8), Some(None));
        // Every truncation is malformed to the skipper as to the decoder.
        for cut in 0..buf.len() - 1 {
            assert_eq!(skip_props(&buf[..cut], &mut 0), None, "cut at {cut}");
            assert_eq!(decode_props(&buf[..cut], &mut 0), None, "cut at {cut}");
            assert_eq!(find_prop(&buf[..cut], &mut 0, 4), None, "cut at {cut}");
        }
        // A string length that overflows the position is refused, not added.
        let huge = [
            0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
        ];
        assert_eq!(skip_value(&huge, &mut 0), None);
        assert_eq!(decode_value(&huge, &mut 0), None);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Str("hello".into()));
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), None);
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut pos = 0;
        assert_eq!(decode_value(&[0x77], &mut pos), None);
    }

    #[test]
    fn small_ints_encode_small() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Int(3));
        assert_eq!(buf.len(), 2, "tag + 1 varint byte");
    }
}
