//! Fixture: C1 violation. A wire-decoded integer combined with unchecked
//! `+` — the silent-corruption shape the rule's arithmetic half exists to
//! catch.

/// Decode a frame header; `len` comes straight off the wire.
pub fn decode_header(r: &mut WireReader) -> u64 {
    let len = r.u32();
    let total = len + 8;
    u64::from(total)
}
