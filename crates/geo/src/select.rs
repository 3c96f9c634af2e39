//! Partial-selection top-k: `sort + truncate(k)` without sorting the
//! tail.
//!
//! Ranking sites keep only the top handful of a vocabulary-sized list.
//! A full `sort_by` pays `O(n log n)` for entries that are immediately
//! discarded; [`top_k_by`] instead partitions a materialized list with
//! `select_nth_unstable_by` in `O(n)` and sorts only the `k` winners.
//! When the candidates arrive one at a time and there are many lists
//! to fill (the geographic tag index keeps two rankings per country
//! over every non-zero tag × country cell), [`TopK`] keeps the winners
//! as they stream past instead, so no candidate list is ever built.

use core::cmp::Ordering;

/// Returns the `k` elements that would lead `items` after
/// `items.sort_by(cmp)`, in sorted order.
///
/// When `cmp` is a **total order** (antisymmetric and transitive — in
/// this codebase always guaranteed by a unique-id tiebreak), the result
/// is element-for-element identical to
/// `items.sort_by(cmp); items.truncate(k)`: the selection step places
/// exactly the `k` front elements (in arbitrary order) before the
/// partition point, and sorting those `k` restores the unique prefix
/// of the total order, ties included.
pub fn top_k_by<T, F>(mut items: Vec<T>, k: usize, mut cmp: F) -> Vec<T>
where
    F: FnMut(&T, &T) -> Ordering,
{
    if k == 0 {
        items.clear();
        return items;
    }
    if k < items.len() {
        items.select_nth_unstable_by(k - 1, &mut cmp);
        items.truncate(k);
    }
    items.sort_by(cmp);
    items
}

/// A bounded streaming top-k: the `k` best items offered so far under
/// `cmp`, best first.
///
/// After any sequence of [`offer`](TopK::offer)s the kept items equal
/// `offered.sort_by(cmp); offered.truncate(k)` element for element —
/// ties included, since an item that compares equal to a kept one
/// ranks after it, exactly as in a stable sort. Each offer costs one
/// comparison against the worst kept item when it loses, and a binary
/// search plus an `O(k)` shift when it wins, so the accumulator is
/// meant for small `k`.
#[derive(Debug, Clone)]
pub struct TopK<T, F> {
    k: usize,
    kept: Vec<T>,
    cmp: F,
}

impl<T, F> TopK<T, F>
where
    F: Fn(&T, &T) -> Ordering,
{
    /// An empty accumulator keeping at most `k` items. `k == 0` keeps
    /// nothing.
    pub fn new(k: usize, cmp: F) -> TopK<T, F> {
        TopK {
            k,
            kept: Vec::new(),
            cmp,
        }
    }

    /// Offers one candidate; it is kept if it ranks among the best `k`
    /// seen so far.
    pub fn offer(&mut self, item: T) {
        if self.kept.len() >= self.k {
            // Full (or `k == 0`): only an item strictly better than the
            // worst kept one gets in, and it evicts that one.
            match self.kept.last() {
                Some(worst) if (self.cmp)(&item, worst) == Ordering::Less => self.kept.pop(),
                _ => return,
            };
        }
        let at = self
            .kept
            .partition_point(|kept| (self.cmp)(kept, &item) != Ordering::Greater);
        self.kept.insert(at, item);
    }

    /// The worst kept item once `k` items are kept — an offer must rank
    /// strictly before it to get in — or `None` while there is room.
    pub fn floor(&self) -> Option<&T> {
        if self.kept.len() < self.k {
            None
        } else {
            self.kept.last()
        }
    }

    /// The kept items, best first.
    pub fn into_sorted(self) -> Vec<T> {
        self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sort(mut items: Vec<(u32, f64)>, k: usize) -> Vec<(u32, f64)> {
        items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        items.truncate(k);
        items
    }

    #[test]
    fn matches_full_sort_including_ties() {
        // Repeated scores force the tiebreak to decide membership.
        let items: Vec<(u32, f64)> = (0..200u32).map(|i| (i, f64::from(i % 7))).collect();
        for k in [0, 1, 3, 7, 50, 199, 200, 500] {
            let fast = top_k_by(items.clone(), k, |a, b| {
                b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
            });
            assert_eq!(fast, full_sort(items.clone(), k), "k={k}");
        }
    }

    #[test]
    fn k_zero_and_empty_input() {
        assert!(top_k_by(vec![(1u32, 1.0)], 0, |a, b| a.0.cmp(&b.0)).is_empty());
        assert!(top_k_by(Vec::<(u32, f64)>::new(), 5, |a, b| a.0.cmp(&b.0)).is_empty());
    }

    fn streamed(
        items: &[(u32, f64)],
        k: usize,
        cmp: fn(&(u32, f64), &(u32, f64)) -> Ordering,
    ) -> Vec<(u32, f64)> {
        let mut top = TopK::new(k, cmp);
        for &item in items {
            top.offer(item);
        }
        top.into_sorted()
    }

    fn descending_by_score(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
        b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
    }

    #[test]
    fn accumulator_matches_top_k_by_including_ties() {
        // Repeated scores force the tiebreak to decide membership; the
        // offer order is scrambled so insertion is exercised anywhere.
        let items: Vec<(u32, f64)> = (0..200u32)
            .map(|i| ((i * 73) % 200, f64::from((i * 31) % 7) - 2.0))
            .collect();
        for k in [0, 1, 3, 7, 8, 50, 199, 200, 500] {
            assert_eq!(
                streamed(&items, k, descending_by_score),
                top_k_by(items.clone(), k, descending_by_score),
                "k={k}"
            );
        }
    }

    #[test]
    fn accumulator_is_a_stable_sort_prefix_under_a_partial_key() {
        // Comparing by score alone leaves ties unresolved: the earlier
        // offer must win, as in a stable `sort_by` + `truncate`.
        let by_score: fn(&(u32, f64), &(u32, f64)) -> Ordering = |a, b| b.1.total_cmp(&a.1);
        let items: Vec<(u32, f64)> = (0..60u32).map(|i| (i, f64::from(i % 4))).collect();
        for k in [1, 2, 15, 16, 17, 60, 61] {
            let mut sorted = items.clone();
            sorted.sort_by(by_score);
            sorted.truncate(k);
            assert_eq!(streamed(&items, k, by_score), sorted, "k={k}");
        }
    }

    #[test]
    fn accumulator_with_k_zero_or_no_offers_is_empty() {
        assert!(streamed(&[(1, 1.0), (2, 2.0)], 0, descending_by_score).is_empty());
        assert!(streamed(&[], 5, descending_by_score).is_empty());
    }
}
