//! Bit-width accounting for CONGEST messages.

/// A message that can cross one edge in one CONGEST round.
///
/// Implementors report their encoded width in bits; the [`crate::Simulator`]
/// checks every sent message against the per-round budget
/// (`budget_factor · ⌈log₂ n⌉` bits). The width should reflect a reasonable
/// wire encoding — e.g. a node id costs `⌈log₂ n⌉` bits, a tag costs
/// `⌈log₂ #variants⌉` bits — not Rust's in-memory layout.
pub trait CongestMessage: Clone + std::fmt::Debug {
    /// Encoded width in bits.
    fn bit_width(&self) -> usize;

    /// Canonical wire encoding as the low [`Self::bit_width`] bits of a
    /// `u64`, when the type defines one (and fits in 64 bits).
    ///
    /// The fault layer flips bits in this encoding to model corruption;
    /// types returning `None` are uncorruptible in place, so a corruption
    /// fault degrades to a drop for them.
    fn encode_bits(&self) -> Option<u64> {
        None
    }

    /// Inverse of [`Self::encode_bits`]; `None` when the bits are not a
    /// valid encoding (a garbled frame the receiver must discard, never a
    /// panic).
    fn decode_bits(bits: u64) -> Option<Self> {
        let _ = bits;
        None
    }

    /// The message with `flip_mask` XOR-ed into its canonical encoding, or
    /// `None` when the type has no encoding or the flipped bits no longer
    /// decode.
    fn corrupted(&self, flip_mask: u64) -> Option<Self> {
        Self::decode_bits(self.encode_bits()? ^ flip_mask)
    }
}

/// Bits needed to address one of `count` distinct values (at least 1).
///
/// # Examples
///
/// ```
/// use amt_congest::bits_for_count;
/// assert_eq!(bits_for_count(1), 1);
/// assert_eq!(bits_for_count(2), 1);
/// assert_eq!(bits_for_count(1024), 10);
/// assert_eq!(bits_for_count(1025), 11);
/// ```
pub fn bits_for_count(count: usize) -> usize {
    if count <= 2 {
        1
    } else {
        (usize::BITS - (count - 1).leading_zeros()) as usize
    }
}

/// Bits needed to write the value `v` in binary (at least 1).
pub fn bits_for_value(v: u64) -> usize {
    if v < 2 {
        1
    } else {
        (u64::BITS - v.leading_zeros()) as usize
    }
}

impl CongestMessage for u32 {
    fn bit_width(&self) -> usize {
        bits_for_value(u64::from(*self))
    }
    fn encode_bits(&self) -> Option<u64> {
        Some(u64::from(*self))
    }
    fn decode_bits(bits: u64) -> Option<Self> {
        u32::try_from(bits).ok()
    }
}

impl CongestMessage for u64 {
    fn bit_width(&self) -> usize {
        bits_for_value(*self)
    }
    fn encode_bits(&self) -> Option<u64> {
        Some(*self)
    }
    fn decode_bits(bits: u64) -> Option<Self> {
        Some(bits)
    }
}

impl CongestMessage for () {
    fn bit_width(&self) -> usize {
        1
    }
    fn encode_bits(&self) -> Option<u64> {
        Some(0)
    }
    fn decode_bits(bits: u64) -> Option<Self> {
        (bits == 0).then_some(())
    }
}

impl CongestMessage for bool {
    fn bit_width(&self) -> usize {
        1
    }
    fn encode_bits(&self) -> Option<u64> {
        Some(u64::from(*self))
    }
    fn decode_bits(bits: u64) -> Option<Self> {
        match bits {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<A: CongestMessage, B: CongestMessage> CongestMessage for (A, B) {
    fn bit_width(&self) -> usize {
        self.0.bit_width() + self.1.bit_width()
    }
}

impl<A: CongestMessage, B: CongestMessage, C: CongestMessage> CongestMessage for (A, B, C) {
    fn bit_width(&self) -> usize {
        self.0.bit_width() + self.1.bit_width() + self.2.bit_width()
    }
}

impl<M: CongestMessage> CongestMessage for Option<M> {
    fn bit_width(&self) -> usize {
        1 + self.as_ref().map_or(0, CongestMessage::bit_width)
    }
    fn encode_bits(&self) -> Option<u64> {
        // Presence tag in bit 0, payload above it (payload must leave room
        // for the tag).
        match self {
            None => Some(0),
            Some(m) => {
                let payload = m.encode_bits()?;
                if payload >= 1 << 63 {
                    return None;
                }
                Some(1 | (payload << 1))
            }
        }
    }
    fn decode_bits(bits: u64) -> Option<Self> {
        if bits == 0 {
            Some(None)
        } else if bits & 1 == 1 {
            M::decode_bits(bits >> 1).map(Some)
        } else {
            // Tag says "absent" but payload bits are set: garbled frame.
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_value_edge_cases() {
        assert_eq!(bits_for_value(0), 1);
        assert_eq!(bits_for_value(1), 1);
        assert_eq!(bits_for_value(2), 2);
        assert_eq!(bits_for_value(255), 8);
        assert_eq!(bits_for_value(256), 9);
    }

    #[test]
    fn composite_widths_add() {
        let m = (3u32, 5u64);
        assert_eq!(m.bit_width(), 2 + 3);
        assert_eq!(Some(7u32).bit_width(), 1 + 3);
        assert_eq!(None::<u32>.bit_width(), 1);
        assert_eq!((true, (), 2u32).bit_width(), 1 + 1 + 2);
    }

    #[test]
    fn encode_decode_roundtrips() {
        assert_eq!(u64::decode_bits(17u64.encode_bits().unwrap()), Some(17));
        assert_eq!(u32::decode_bits(9u32.encode_bits().unwrap()), Some(9));
        assert_eq!(u32::decode_bits(u64::MAX), None);
        assert_eq!(bool::decode_bits(true.encode_bits().unwrap()), Some(true));
        assert_eq!(bool::decode_bits(2), None);
        assert_eq!(<()>::decode_bits(0), Some(()));
        assert_eq!(<()>::decode_bits(1), None);
        let some = Some(5u32);
        assert_eq!(
            Option::<u32>::decode_bits(some.encode_bits().unwrap()),
            Some(some)
        );
        assert_eq!(
            Option::<u32>::decode_bits(None::<u32>.encode_bits().unwrap()),
            Some(None)
        );
        // Tag bit cleared while payload bits remain set: garbled.
        assert_eq!(Option::<u32>::decode_bits(0b10), None);
    }

    #[test]
    fn corruption_flips_exactly_one_bit_or_garbles() {
        // Flipping a value bit of a u64 yields the XOR-ed value.
        assert_eq!(42u64.corrupted(1), Some(43));
        // Flipping the tag bit of Some(v) garbles the frame.
        assert_eq!(Some(5u32).corrupted(1), None);
        // Tuples have no canonical encoding: corruption degrades to a drop.
        assert_eq!((1u32, 2u32).corrupted(1), None);
        assert_eq!((1u32, 2u32).encode_bits(), None);
    }
}
