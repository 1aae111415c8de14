//! Compact concatenated keys (CCK).
//!
//! The paper's fast-dedup table (Figure 5) represents a whole tuple as one
//! fixed-size *compact concatenated key*: "The compact CK itself contains
//! all information of the original tuple, eliminating the need for explicit
//! ⟨key, value⟩ pair representation. Additionally, the key itself is used as
//! the hash value." We generalize the two-int example to any column set whose
//! min/max spans (from table statistics) fit 64 bits together; wider tuples
//! fall back to hashing with exact row comparison on collisions.

use recstep_common::hash::{hash_row, hash_values, mix64};
use recstep_common::Value;
use recstep_storage::RelView;

/// Per-column slot of a packed key layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeySlot {
    /// Values are stored as offsets from this minimum.
    pub min: Value,
    /// Bits reserved for the offset.
    pub bits: u32,
    /// Left shift of this column's slot within the packed word.
    pub shift: u32,
}

impl KeySlot {
    /// Whether every value within `(lo, hi)` fits the slot.
    fn covers(&self, (lo, hi): (Value, Value)) -> bool {
        if lo < self.min {
            return false;
        }
        let span = (hi as i128 - self.min as i128) as u128;
        self.bits >= 64 || span < (1u128 << self.bits)
    }
}

/// A packed layout mapping a tuple of columns onto one `u64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyLayout {
    slots: Vec<KeySlot>,
    total_bits: u32,
}

impl KeyLayout {
    /// Derive a layout from per-column `(min, max)` bounds. Returns `None`
    /// when the combined width exceeds 64 bits.
    pub fn from_bounds(bounds: &[(Value, Value)]) -> Option<KeyLayout> {
        let mut slots = Vec::with_capacity(bounds.len());
        let mut shift = 0u32;
        for &(min, max) in bounds {
            debug_assert!(min <= max);
            let span = (max as i128 - min as i128) as u128;
            let bits = if span == 0 {
                1
            } else {
                128 - span.leading_zeros()
            };
            if shift + bits > 64 {
                return None;
            }
            slots.push(KeySlot { min, bits, shift });
            shift += bits;
        }
        Some(KeyLayout {
            slots,
            total_bits: shift,
        })
    }

    /// Derive a layout over the given columns of a view. Bounds come from
    /// the view's incrementally maintained cache when present (stored
    /// relations); only raw operator intermediates pay a column scan.
    /// Returns `None` for empty views or over-wide keys.
    pub fn from_view(view: RelView<'_>, cols: &[usize]) -> Option<KeyLayout> {
        if view.is_empty() {
            return None;
        }
        let bounds: Vec<(Value, Value)> = cols.iter().map(|&c| col_bounds(view, c)).collect();
        KeyLayout::from_bounds(&bounds)
    }

    /// Derive a single layout covering the same key columns of *two* views
    /// (required whenever keys from both sides must compare equal, e.g. set
    /// difference and joins). `None` if either view is empty on its own is
    /// avoided by taking whichever bounds exist.
    pub fn from_two_views(
        a: RelView<'_>,
        a_cols: &[usize],
        b: RelView<'_>,
        b_cols: &[usize],
    ) -> Option<KeyLayout> {
        assert_eq!(a_cols.len(), b_cols.len());
        if a.is_empty() && b.is_empty() {
            return None;
        }
        let bounds: Vec<(Value, Value)> = a_cols
            .iter()
            .zip(b_cols)
            .map(|(&ca, &cb)| {
                let mut min = Value::MAX;
                let mut max = Value::MIN;
                if !a.is_empty() {
                    let (lo, hi) = col_bounds(a, ca);
                    min = min.min(lo);
                    max = max.max(hi);
                }
                if !b.is_empty() {
                    let (lo, hi) = col_bounds(b, cb);
                    min = min.min(lo);
                    max = max.max(hi);
                }
                (min, max)
            })
            .collect();
        KeyLayout::from_bounds(&bounds)
    }

    /// True when every value within `bounds` is representable by this
    /// layout (column-wise containment). The check behind compact-key
    /// invalidation: values escaping a persistent index's layout force a
    /// one-time fall back to hashed keys.
    pub fn covers(&self, bounds: &[(Value, Value)]) -> bool {
        debug_assert_eq!(bounds.len(), self.slots.len());
        self.slots
            .iter()
            .zip(bounds)
            .all(|(slot, &b)| slot.covers(b))
    }

    /// [`KeyLayout::covers`] of the bounds of `view`'s columns `cols`
    /// (cached when the backing relation keeps them): whether every value
    /// there fits. An empty view fits.
    pub fn covers_view(&self, view: RelView<'_>, cols: &[usize]) -> bool {
        debug_assert_eq!(cols.len(), self.slots.len());
        view.is_empty()
            || self
                .slots
                .iter()
                .zip(cols)
                .all(|(slot, &c)| slot.covers(col_bounds(view, c)))
    }

    /// Number of key columns.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The per-column slots, in the order the bounds were given. Seek-style
    /// consumers (the worst-case optimal join's sorted tries) use the
    /// shift/bits of each slot to extract one column's field out of a
    /// packed key without unpacking the whole tuple.
    pub fn slots(&self) -> &[KeySlot] {
        &self.slots
    }

    /// Total bits used by the packed representation.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Pack the given values. Values must lie within the layout's bounds.
    #[inline]
    pub fn pack(&self, vals: &[Value]) -> u64 {
        debug_assert_eq!(vals.len(), self.slots.len());
        let mut key = 0u64;
        for (slot, &v) in self.slots.iter().zip(vals) {
            let off = (v as i128 - slot.min as i128) as u128 as u64;
            debug_assert!(slot.bits == 64 || off < (1u64 << slot.bits));
            key |= off << slot.shift;
        }
        key
    }

    /// Pack `vals` only if every value is representable: `None` when a
    /// value escapes its slot. This is the streaming form of compact-key
    /// invalidation — the fused pipeline checks each produced row as it
    /// streams past instead of scanning a materialized batch's bounds.
    #[inline]
    pub fn try_pack(&self, vals: &[Value]) -> Option<u64> {
        debug_assert_eq!(vals.len(), self.slots.len());
        let mut key = 0u64;
        for (slot, &v) in self.slots.iter().zip(vals) {
            if v < slot.min {
                return None;
            }
            let off = (v as i128 - slot.min as i128) as u128;
            if slot.bits < 64 && off >= (1u128 << slot.bits) {
                return None;
            }
            key |= (off as u64) << slot.shift;
        }
        Some(key)
    }

    /// Pack key columns of row `r` in `view`.
    #[inline]
    pub fn pack_row(&self, view: RelView<'_>, r: usize, cols: &[usize]) -> u64 {
        debug_assert_eq!(cols.len(), self.slots.len());
        let mut key = 0u64;
        for (slot, &c) in self.slots.iter().zip(cols) {
            let v = view.get(r, c);
            let off = (v as i128 - slot.min as i128) as u128 as u64;
            key |= off << slot.shift;
        }
        key
    }

    /// Unpack a key back into values (inverse of [`KeyLayout::pack`]).
    pub fn unpack(&self, key: u64, out: &mut Vec<Value>) {
        out.clear();
        for slot in &self.slots {
            let mask = if slot.bits >= 64 {
                u64::MAX
            } else {
                (1u64 << slot.bits) - 1
            };
            let off = (key >> slot.shift) & mask;
            out.push(((slot.min as i128) + off as i128) as Value);
        }
    }
}

/// How tuples of a given view are turned into 64-bit table keys.
#[derive(Clone, Debug)]
pub enum KeyMode {
    /// Exact packed key — equality of keys ⇔ equality of tuples, and the
    /// key (after [`mix64`]) is its own hash.
    Packed(KeyLayout),
    /// Hashed key — collisions possible; equality must be verified against
    /// the underlying rows.
    Hashed,
}

impl KeyMode {
    /// Choose the best mode covering the key columns of two views.
    pub fn for_views(
        a: RelView<'_>,
        a_cols: &[usize],
        b: RelView<'_>,
        b_cols: &[usize],
    ) -> KeyMode {
        match KeyLayout::from_two_views(a, a_cols, b, b_cols) {
            Some(l) => KeyMode::Packed(l),
            None => KeyMode::Hashed,
        }
    }

    /// Choose the best mode for one view.
    pub fn for_view(view: RelView<'_>, cols: &[usize]) -> KeyMode {
        match KeyLayout::from_view(view, cols) {
            Some(l) => KeyMode::Packed(l),
            None => KeyMode::Hashed,
        }
    }

    /// True when key equality implies tuple equality.
    pub fn exact(&self) -> bool {
        matches!(self, KeyMode::Packed(_))
    }

    /// Key of an owned row (all values are key columns, in order), or
    /// `None` when a packed layout cannot represent it. Hashed mode never
    /// fails. Produces the same keys as [`KeyMode::key_of`] over identity
    /// key columns, so streamed rows and stored rows compare equal.
    #[inline]
    pub fn try_key_of_row(&self, row: &[Value]) -> Option<u64> {
        match self {
            KeyMode::Packed(layout) => layout.try_pack(row),
            KeyMode::Hashed => Some(hash_row(row)),
        }
    }

    /// Key of row `r`'s key columns in `view`.
    #[inline]
    pub fn key_of(&self, view: RelView<'_>, r: usize, cols: &[usize]) -> u64 {
        match self {
            KeyMode::Packed(layout) => layout.pack_row(view, r, cols),
            KeyMode::Hashed => hash_values(cols.iter().map(|&c| view.get(r, c))),
        }
    }
}

/// `(min, max)` of column `c` over the viewed rows: the cached covering
/// bounds when the backing relation maintains them, otherwise one scan.
pub fn col_bounds(view: RelView<'_>, c: usize) -> (Value, Value) {
    if let Some(b) = view.cached_bounds(c) {
        return b;
    }
    let data = view.col(c);
    let mut min = data[0];
    let mut max = data[0];
    for &v in data {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Per-column `(min, max)` bounds of the given key columns, or `None` for
/// an empty view.
pub fn bounds_of(view: RelView<'_>, cols: &[usize]) -> Option<Vec<(Value, Value)>> {
    if view.is_empty() {
        return None;
    }
    Some(cols.iter().map(|&c| col_bounds(view, c)).collect())
}

/// Bucket index of a key in a power-of-two table.
#[inline]
pub fn bucket_of(key: u64, mask: usize) -> usize {
    (mix64(key) as usize) & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_storage::{Relation, Schema};

    #[test]
    fn pack_unpack_roundtrip() {
        let layout = KeyLayout::from_bounds(&[(0, 255), (-10, 10), (1000, 1000)]).unwrap();
        assert_eq!(layout.width(), 3);
        let mut out = Vec::new();
        for vals in [[0i64, -10, 1000], [255, 10, 1000], [17, 0, 1000]] {
            let k = layout.pack(&vals);
            layout.unpack(k, &mut out);
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn distinct_tuples_pack_to_distinct_keys() {
        let layout = KeyLayout::from_bounds(&[(0, 99), (0, 99)]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for a in 0..100 {
            for b in 0..100 {
                assert!(seen.insert(layout.pack(&[a, b])));
            }
        }
    }

    #[test]
    fn overwide_layout_is_rejected() {
        assert!(KeyLayout::from_bounds(&[(Value::MIN, Value::MAX), (0, 1)]).is_none());
        // Exactly 64 bits fits.
        assert!(KeyLayout::from_bounds(&[(Value::MIN, Value::MAX)]).is_some());
        // 33 + 32 > 64.
        assert!(KeyLayout::from_bounds(&[(0, 1 << 32), (0, (1 << 32) - 1)]).is_none());
    }

    #[test]
    fn layout_from_view_scans_bounds() {
        let rel = Relation::from_rows(
            Schema::with_arity("t", 2),
            &[vec![5, -3], vec![100, 7], vec![50, 0]],
        );
        let layout = KeyLayout::from_view(rel.view(), &[0, 1]).unwrap();
        let mut out = Vec::new();
        let k = layout.pack(&[100, -3]);
        layout.unpack(k, &mut out);
        assert_eq!(out, vec![100, -3]);
    }

    #[test]
    fn two_view_layout_covers_union_of_bounds() {
        let a = Relation::from_rows(Schema::with_arity("a", 1), &[vec![0], vec![10]]);
        let b = Relation::from_rows(Schema::with_arity("b", 1), &[vec![-5], vec![3]]);
        let layout = KeyLayout::from_two_views(a.view(), &[0], b.view(), &[0]).unwrap();
        let mut out = Vec::new();
        for v in [-5i64, 0, 10] {
            layout.unpack(layout.pack(&[v]), &mut out);
            assert_eq!(out, vec![v]);
        }
    }

    #[test]
    fn keymode_packed_vs_hashed() {
        let narrow = Relation::from_rows(Schema::with_arity("n", 2), &[vec![1, 2]]);
        assert!(KeyMode::for_view(narrow.view(), &[0, 1]).exact());
        let wide = Relation::from_rows(
            Schema::with_arity("w", 2),
            &[vec![Value::MIN, Value::MAX], vec![Value::MAX, Value::MIN]],
        );
        assert!(!KeyMode::for_view(wide.view(), &[0, 1]).exact());
    }

    #[test]
    fn key_of_agrees_between_rows_with_equal_tuples() {
        let rel = Relation::from_rows(
            Schema::with_arity("t", 2),
            &[vec![7, 8], vec![7, 8], vec![8, 7]],
        );
        for mode in [KeyMode::for_view(rel.view(), &[0, 1]), KeyMode::Hashed] {
            let k0 = mode.key_of(rel.view(), 0, &[0, 1]);
            let k1 = mode.key_of(rel.view(), 1, &[0, 1]);
            let k2 = mode.key_of(rel.view(), 2, &[0, 1]);
            assert_eq!(k0, k1);
            assert_ne!(k0, k2);
        }
    }

    #[test]
    fn covers_detects_escaping_bounds() {
        let layout = KeyLayout::from_bounds(&[(0, 255), (-8, 7)]).unwrap();
        assert!(layout.covers(&[(0, 255), (-8, 7)]));
        assert!(layout.covers(&[(10, 20), (0, 0)]));
        // Below a slot minimum escapes.
        assert!(!layout.covers(&[(-1, 255), (0, 0)]));
        // Above a slot's representable span escapes (255 spans 8 bits from
        // min 0, so 256 does not fit).
        assert!(!layout.covers(&[(0, 256), (0, 0)]));
        // 64-bit slots cover everything.
        let wide = KeyLayout::from_bounds(&[(Value::MIN, Value::MAX)]).unwrap();
        assert!(wide.covers(&[(Value::MIN, Value::MAX)]));
    }

    #[test]
    fn from_view_consumes_cached_relation_bounds() {
        let mut r = Relation::new(Schema::with_arity("t", 1));
        r.push_row(&[4]);
        r.push_row(&[19]);
        let layout = KeyLayout::from_view(r.view(), &[0]).unwrap();
        // Bounds (4, 19) span 15 → 4 bits, proving the cached path agrees
        // with a scan.
        assert_eq!(layout.total_bits(), 4);
        assert_eq!(bounds_of(r.view(), &[0]), Some(vec![(4, 19)]));
        assert_eq!(bounds_of(r.prefix_view(0), &[0]), None);
    }

    #[test]
    fn try_pack_agrees_with_pack_and_detects_escapes() {
        let layout = KeyLayout::from_bounds(&[(0, 255), (-8, 7)]).unwrap();
        assert_eq!(layout.try_pack(&[17, -3]), Some(layout.pack(&[17, -3])));
        assert_eq!(layout.try_pack(&[255, 7]), Some(layout.pack(&[255, 7])));
        // Below a slot minimum and above a slot span both escape.
        assert_eq!(layout.try_pack(&[-1, 0]), None);
        assert_eq!(layout.try_pack(&[256, 0]), None);
        assert_eq!(layout.try_pack(&[0, 8]), None);
        // 64-bit slots cover everything.
        let wide = KeyLayout::from_bounds(&[(Value::MIN, Value::MAX)]).unwrap();
        assert_eq!(wide.try_pack(&[Value::MAX]), Some(wide.pack(&[Value::MAX])));
    }

    #[test]
    fn try_key_of_row_matches_key_of_identity_columns() {
        let rel = Relation::from_rows(
            Schema::with_arity("t", 2),
            &[vec![5, -3], vec![100, 7], vec![50, 0]],
        );
        for mode in [KeyMode::for_view(rel.view(), &[0, 1]), KeyMode::Hashed] {
            for r in 0..rel.len() {
                let row = [rel.col(0)[r], rel.col(1)[r]];
                assert_eq!(
                    mode.try_key_of_row(&row),
                    Some(mode.key_of(rel.view(), r, &[0, 1]))
                );
            }
        }
        // Escapes surface as None only in packed mode.
        let packed = KeyMode::for_view(rel.view(), &[0, 1]);
        assert_eq!(packed.try_key_of_row(&[Value::MAX, 0]), None);
        assert!(KeyMode::Hashed.try_key_of_row(&[Value::MAX, 0]).is_some());
    }

    #[test]
    fn empty_views_yield_no_layout() {
        let e = Relation::new(Schema::with_arity("e", 1));
        assert!(KeyLayout::from_view(e.view(), &[0]).is_none());
        assert!(KeyLayout::from_two_views(e.view(), &[0], e.view(), &[0]).is_none());
    }
}
