//! Tag interning.
//!
//! The paper's filtered dataset associates 691,349 videos with 705,415
//! *unique* tags — a long-tailed vocabulary where most tags occur once.
//! Interning maps each distinct tag string to a dense [`TagId`] so the
//! per-tag aggregation of Eq. 3 can run over flat arrays.

use core::fmt;
use std::collections::HashMap;
use std::sync::Arc;

/// Compact identifier of an interned tag.
///
/// Ids are dense (0‥[`TagInterner::len`]) in first-seen order, so they
/// double as indices into per-tag arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(u32);

impl TagId {
    /// Creates a tag id from a raw dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — a silent `as` cast here
    /// would wrap and alias two tags under one id.
    pub fn from_index(index: usize) -> TagId {
        assert!(
            u32::try_from(index).is_ok(),
            "tag index {index} overflows the u32 id space"
        );
        TagId(index as u32)
    }

    /// Returns the dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<TagId> for usize {
    fn from(id: TagId) -> usize {
        id.index()
    }
}

/// Bidirectional map between tag strings and dense [`TagId`]s.
///
/// Tag strings are normalized to lowercase with surrounding whitespace
/// trimmed, matching the common YouTube practice of case-insensitive
/// tags; empty strings are rejected by [`TagInterner::intern`].
///
/// # Example
///
/// ```
/// use tagdist_dataset::TagInterner;
///
/// let mut tags = TagInterner::new();
/// let pop = tags.intern("Pop").unwrap();
/// assert_eq!(tags.intern("pop"), Some(pop)); // case-insensitive
/// assert_eq!(tags.name(pop), "pop");
/// assert_eq!(tags.len(), 1);
/// ```
///
/// Each name is stored once, as an `Arc<str>` shared by the id → name
/// list and the name → id map, so cloning an interner (every published
/// epoch carries one) copies pointers, not strings.
#[derive(Debug, Clone, Default)]
pub struct TagInterner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, TagId>,
}

impl PartialEq for TagInterner {
    /// Two interners are equal when they hold the same names in the
    /// same id order (the reverse map is derived from the names, so
    /// comparing it would be redundant).
    fn eq(&self, other: &TagInterner) -> bool {
        self.names == other.names
    }
}

impl Eq for TagInterner {}

impl TagInterner {
    /// Creates an empty interner.
    pub fn new() -> TagInterner {
        TagInterner::default()
    }

    /// Number of distinct tags interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no tags have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns a tag, returning its id, or `None` if the tag is empty
    /// after normalization (trim + lowercase).
    pub fn intern(&mut self, tag: &str) -> Option<TagId> {
        let trimmed = tag.trim();
        if trimmed.is_empty() {
            return None;
        }
        // Fast path: every stored name is a `to_lowercase` fixed point,
        // so a borrowed hit on the trimmed input proves it is already
        // normalized — no lowercase allocation for the common case of
        // pre-interned tags arriving from the simulator.
        if let Some(&id) = self.ids.get(trimmed) {
            return Some(id);
        }
        let normalized = trimmed.to_lowercase();
        if let Some(&id) = self.ids.get(normalized.as_str()) {
            return Some(id);
        }
        let id = TagId::from_index(self.names.len());
        let name: Arc<str> = Arc::from(normalized);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        Some(id)
    }

    /// Rebuilds an interner from an ordered name list (the binary
    /// format's tag-name pool). Names must already be normalized and
    /// distinct; `id(name)` then maps each back to its dense position.
    pub(crate) fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> TagInterner {
        let mut interner = TagInterner::new();
        interner.extend_names(names);
        interner
    }

    /// Appends names verbatim under the next dense ids, as
    /// [`from_names`](TagInterner::from_names) adopts them: normalized,
    /// distinct, and distinct from every name already held.
    pub(crate) fn extend_names<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        let start = self.names.len();
        self.names.extend(names.into_iter().map(Arc::from));
        // A second pass over the new names, not one insert per copy:
        // at 548k names the interleaved form took 0.18 s against 0.10 s.
        let new = self.names[start..].iter().enumerate();
        self.ids
            .extend(new.map(|(i, name)| (Arc::clone(name), TagId::from_index(start + i))));
    }

    /// Looks up a tag without interning it.
    pub fn id(&self, tag: &str) -> Option<TagId> {
        self.ids.get(Self::normalize(tag).as_str()).copied()
    }

    /// Returns the normalized name of an interned tag.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn name(&self, id: TagId) -> &str {
        &self.names[id.index()]
    }

    /// Iterates over `(TagId, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TagId::from_index(i), &**n))
    }

    fn normalize(tag: &str) -> String {
        tag.trim().to_lowercase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_id_round_trips_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        assert_eq!(TagId::from_index(max).index(), max);
    }

    #[test]
    #[should_panic(expected = "overflows the u32 id space")]
    fn tag_id_overflow_panics_instead_of_wrapping() {
        let _ = TagId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = TagInterner::new();
        let a = t.intern("music").unwrap();
        let b = t.intern("music").unwrap();
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn normalization_folds_case_and_whitespace() {
        let mut t = TagInterner::new();
        let a = t.intern("  Favela ").unwrap();
        assert_eq!(t.name(a), "favela");
        assert_eq!(t.id("FAVELA"), Some(a));
    }

    #[test]
    fn empty_tags_are_rejected() {
        let mut t = TagInterner::new();
        assert_eq!(t.intern(""), None);
        assert_eq!(t.intern("   "), None);
        assert!(t.is_empty());
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut t = TagInterner::new();
        let ids: Vec<TagId> = ["a", "b", "c"]
            .iter()
            .map(|s| t.intern(s).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        let collected: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn id_lookup_does_not_intern() {
        let t = TagInterner::new();
        assert_eq!(t.id("missing"), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn from_names_reproduces_an_interner() {
        let mut t = TagInterner::new();
        for tag in ["pop", "hip hop", "baile funk"] {
            t.intern(tag).unwrap();
        }
        let mut r = TagInterner::from_names(t.iter().map(|(_, n)| n));
        assert_eq!(r.len(), t.len());
        for (id, name) in t.iter() {
            assert_eq!(r.id(name), Some(id));
            assert_eq!(r.name(id), name);
        }
        // Interning an existing name is a no-op on the rebuilt side.
        assert_eq!(r.intern("pop"), t.id("pop"));
        assert_eq!(r.len(), t.len());
    }

    #[test]
    fn fast_path_matches_slow_path_classification() {
        // Mixed-case and padded inputs still converge to one id.
        let mut t = TagInterner::new();
        let a = t.intern("Baile Funk").unwrap();
        assert_eq!(t.intern("baile funk"), Some(a));
        assert_eq!(t.intern("  baile funk  "), Some(a));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TagId::from_index(17).to_string(), "t17");
    }

    #[test]
    fn multi_word_tags_are_preserved() {
        // YouTube tags frequently contain spaces ("justin bieber").
        let mut t = TagInterner::new();
        let id = t.intern("Justin Bieber").unwrap();
        assert_eq!(t.name(id), "justin bieber");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn interning_round_trips(tags in proptest::collection::vec("[a-z0-9 ]{1,20}", 1..50)) {
            let mut interner = TagInterner::new();
            for tag in &tags {
                if let Some(id) = interner.intern(tag) {
                    prop_assert_eq!(interner.name(id), tag.trim().to_lowercase());
                    prop_assert_eq!(interner.id(tag), Some(id));
                }
            }
            // Dense ids.
            for (i, (id, _)) in interner.iter().enumerate() {
                prop_assert_eq!(id.index(), i);
            }
        }
    }
}
